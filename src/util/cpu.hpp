// Runtime CPU feature detection for the SIMD kernel tiers in src/nn. The
// active tier is resolved once per process — best tier both the CPU and this
// binary support, overridable with CPT_SIMD=scalar|avx2 — and logged on first
// use so a generation run records which kernels produced it.
//
// Determinism contract (see DESIGN.md §9): within a fixed tier, every kernel
// performs identical per-element arithmetic regardless of thread count, so
// generation output is byte-stable across CPT_THREADS. Changing the tier
// changes only the GEMMs' low-order bits (avx2 fuses each multiply-add into
// one FMA rounding); every other kernel gives the same bits on every tier.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace cpt::util {

// Ordered: higher enumerators are strict supersets in instruction capability.
enum class SimdTier { kScalar = 0, kAvx2 = 1 };

// Lower-case tier name as accepted by CPT_SIMD ("scalar", "avx2").
const char* simd_tier_name(SimdTier tier);

// Best tier supported by both the host CPU and the compiled binary
// (AVX2 kernels exist only when the compiler accepted -mavx2 -mfma).
SimdTier detect_simd_tier();

// True when `tier` does not exceed detect_simd_tier().
bool simd_tier_available(SimdTier tier);

// Vector width, in floats, of gemm_nt_decode's tiles on `tier`: 1 on scalar;
// on avx2, 16 when this binary carries the AVX-512F tiles and the host
// supports them (__builtin_cpu_supports also checks that the OS saves the ZMM
// state), else 8. A width, not a tier: both avx2 widths give the same bytes
// (DESIGN.md §9), so nothing selects it but the host.
std::size_t decode_lanes(SimdTier tier);

// Every tier this host/binary can run, scalar first.
std::vector<SimdTier> available_simd_tiers();

// The tier a CPT_SIMD value selects on a host whose best tier is `detected`,
// and the warning to log when the value does not select the tier it names
// (empty otherwise). An empty value selects `detected`; "sse2" names the
// retired SSE2 tier and selects scalar, which gives the same bits; an unknown
// value selects `detected`; a tier above `detected` is clamped to it.
struct SimdTierChoice {
    SimdTier tier;
    std::string warning;
};
SimdTierChoice choose_simd_tier(std::string_view env, SimdTier detected);

// The tier all nn kernels dispatch on. Resolved once via choose_simd_tier
// from CPT_SIMD and detect_simd_tier(); the chosen tier and its decode width
// are logged via util::info on first resolution.
SimdTier active_simd_tier();

// Forces the active tier (tests / benchmarks compare tiers in-process) and
// returns the previous one. Requesting an unavailable tier throws CheckError.
SimdTier set_simd_tier(SimdTier tier);

// Forces the active tier for its lifetime and restores the previous one.
class ScopedSimdTier {
public:
    explicit ScopedSimdTier(SimdTier tier) : prev_(set_simd_tier(tier)) {}
    ~ScopedSimdTier() { set_simd_tier(prev_); }
    ScopedSimdTier(const ScopedSimdTier&) = delete;
    ScopedSimdTier& operator=(const ScopedSimdTier&) = delete;

private:
    SimdTier prev_;
};

}  // namespace cpt::util
