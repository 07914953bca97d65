#include "cpu.hpp"

#include <atomic>
#include <cstdlib>
#include <string>

#include "check.hpp"
#include "log.hpp"
#include "sync.hpp"

namespace cpt::util {

namespace {

SimdTier best_supported_tier() {
#if defined(CPT_HAVE_AVX2_KERNELS) && (defined(__x86_64__) || defined(__i386__))
    if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) return SimdTier::kAvx2;
#endif
    return SimdTier::kScalar;
}

bool host_runs_avx512_tiles() {
#if defined(CPT_HAVE_AVX512_KERNELS) && (defined(__x86_64__) || defined(__i386__))
    return __builtin_cpu_supports("avx512f");
#else
    return false;
#endif
}

// -1 = unresolved; otherwise holds a SimdTier enumerator. The atomic is the
// published value; g_resolve_mutex only serializes the one-time resolution
// (env parsing + the single "simd tier" log line).
std::atomic<int> g_active{-1};
Mutex g_resolve_mutex;

SimdTier resolve_active_tier() {
    const SimdTier best = detect_simd_tier();
    const char* env = std::getenv("CPT_SIMD");
    const std::string_view value = env != nullptr ? env : "";
    const SimdTierChoice choice = choose_simd_tier(value, best);
    if (!choice.warning.empty()) warn(choice.warning);
    const std::size_t lanes = decode_lanes(choice.tier);
    info(std::string("simd tier: ") + simd_tier_name(choice.tier) +
         (lanes > 1 ? ", decode " + std::to_string(lanes) + " lanes" : std::string()) +
         " (detected " + simd_tier_name(best) +
         (value.empty() ? std::string(")") : ", CPT_SIMD=" + std::string(value) + ")"));
    return choice.tier;
}

}  // namespace

const char* simd_tier_name(SimdTier tier) {
    switch (tier) {
        case SimdTier::kScalar: return "scalar";
        case SimdTier::kAvx2: return "avx2";
    }
    return "unknown";
}

SimdTier detect_simd_tier() {
    static const SimdTier tier = best_supported_tier();
    return tier;
}

std::size_t decode_lanes(SimdTier tier) {
    if (tier != SimdTier::kAvx2) return 1;
    static const bool wide = host_runs_avx512_tiles();
    return wide ? 16 : 8;
}

bool simd_tier_available(SimdTier tier) {
    return static_cast<int>(tier) <= static_cast<int>(detect_simd_tier());
}

std::vector<SimdTier> available_simd_tiers() {
    std::vector<SimdTier> tiers{SimdTier::kScalar};
    if (simd_tier_available(SimdTier::kAvx2)) tiers.push_back(SimdTier::kAvx2);
    return tiers;
}

SimdTierChoice choose_simd_tier(std::string_view env, SimdTier detected) {
    if (env.empty()) return {detected, {}};
    if (env == "scalar") return {SimdTier::kScalar, {}};
    if (env == "sse2") {
        return {SimdTier::kScalar,
                "CPT_SIMD=sse2: the sse2 tier is retired; using scalar, which gives the same bits"};
    }
    if (env == "avx2") {
        if (detected == SimdTier::kAvx2) return {SimdTier::kAvx2, {}};
        return {detected, "CPT_SIMD=avx2 not supported on this host/binary; clamping to " +
                              std::string(simd_tier_name(detected))};
    }
    return {detected, "CPT_SIMD=" + std::string(env) +
                          " not recognized (expected scalar|avx2); using " +
                          simd_tier_name(detected)};
}

SimdTier active_simd_tier() {
    int cur = g_active.load(std::memory_order_acquire);
    if (cur >= 0) return static_cast<SimdTier>(cur);
    const LockGuard lock(g_resolve_mutex);
    cur = g_active.load(std::memory_order_acquire);
    if (cur >= 0) return static_cast<SimdTier>(cur);
    const SimdTier tier = resolve_active_tier();
    g_active.store(static_cast<int>(tier), std::memory_order_release);
    return tier;
}

SimdTier set_simd_tier(SimdTier tier) {
    CPT_CHECK(simd_tier_available(tier), "set_simd_tier: tier '", simd_tier_name(tier),
              "' not available (detected '", simd_tier_name(detect_simd_tier()), "')");
    const SimdTier prev = active_simd_tier();  // forces resolution + one-time log
    g_active.store(static_cast<int>(tier), std::memory_order_release);
    return prev;
}

}  // namespace cpt::util
