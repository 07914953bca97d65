// Bit-exactness of the blocked/threaded GEMM kernels against the naive
// reference kernels (see the accumulation contract in src/nn/gemm.hpp),
// pinned per SIMD tier. On the scalar and sse2 tiers the comparison is
// memcmp, not tolerance: those kernels — gemm_nt_decode and every m = 1
// shape included — must produce the same bits as the reference for every
// shape and (for the threaded training kernels) every thread count, because
// sampler/world-gen determinism across CPT_THREADS rests on it. The decode
// NT entry is also pinned batch-invariant on every tier, avx2 included: row r
// of an m-row product equals the 1-row product of that row. Cross-tier
// tolerance is nn_simd_parity_test's job.
#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <vector>

#include "nn/gemm.hpp"
#include "util/cpu.hpp"
#include "util/thread_pool.hpp"

namespace cpt::nn {
namespace {

using GemmFn = void (*)(const float*, const float*, float*, std::size_t, std::size_t, std::size_t,
                        util::ThreadPool*);
using RefFn = void (*)(const float*, const float*, float*, std::size_t, std::size_t, std::size_t);

// Pins the active SIMD tier for a scope and restores the previous one.
class TierGuard {
public:
    explicit TierGuard(util::SimdTier tier) : prev_(util::set_simd_tier(tier)) {}
    ~TierGuard() { util::set_simd_tier(prev_); }
    TierGuard(const TierGuard&) = delete;
    TierGuard& operator=(const TierGuard&) = delete;

private:
    util::SimdTier prev_;
};

// The tiers whose kernels promise reference bit-exactness.
std::vector<util::SimdTier> bit_exact_tiers() {
    std::vector<util::SimdTier> tiers{util::SimdTier::kScalar};
    if (util::simd_tier_available(util::SimdTier::kSse2)) tiers.push_back(util::SimdTier::kSse2);
    return tiers;
}

std::vector<float> random_floats(std::size_t n, std::mt19937& gen) {
    std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
    std::vector<float> v(n);
    for (float& x : v) x = dist(gen);
    return v;
}

void expect_bitwise_equal(const std::vector<float>& a, const std::vector<float>& b,
                          const char* what, std::size_t m, std::size_t k, std::size_t n) {
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0)
        << what << " differs from reference at shape (" << m << ", " << k << ", " << n << ")";
}

struct Kernel {
    GemmFn blocked;
    RefFn ref;
    const char* name;
};

// The SIMD tiers this host can run.
std::vector<util::SimdTier> available_tiers() {
    auto tiers = bit_exact_tiers();
    if (util::simd_tier_available(util::SimdTier::kAvx2)) tiers.push_back(util::SimdTier::kAvx2);
    return tiers;
}

void check_shape(const Kernel& kernel, std::size_t m, std::size_t k, std::size_t n,
                 std::mt19937& gen) {
    util::ThreadPool pool1(1);
    util::ThreadPool pool4(4);
    const auto a = random_floats(m * k, gen);
    const auto b = random_floats(k * n, gen);
    // Kernels accumulate into C, so start all variants from the same nonzero C.
    const auto c0 = random_floats(m * n, gen);

    auto c_ref = c0;
    kernel.ref(a.data(), b.data(), c_ref.data(), m, k, n);
    auto c_p1 = c0;
    kernel.blocked(a.data(), b.data(), c_p1.data(), m, k, n, &pool1);
    auto c_p4 = c0;
    kernel.blocked(a.data(), b.data(), c_p4.data(), m, k, n, &pool4);

    // Thread-count invariance is unconditional.
    expect_bitwise_equal(c_p4, c_p1, kernel.name, m, k, n);
    expect_bitwise_equal(c_p1, c_ref, kernel.name, m, k, n);
}

// gemm_nt_decode runs on its caller's thread; this adapter gives it the
// pooled signature so the shape sweeps cover it beside the training kernels.
void gemm_nt_decode_pooled(const float* a, const float* b, float* c, std::size_t m,
                           std::size_t k, std::size_t n, util::ThreadPool*) {
    gemm_nt_decode(a, b, c, m, k, n);
}

const Kernel kKernels[] = {
    {gemm_nn, gemm_nn_ref, "gemm_nn"},
    {gemm_nt, gemm_nt_ref, "gemm_nt"},
    {gemm_tn, gemm_tn_ref, "gemm_tn"},
    {gemm_nt_decode_pooled, gemm_nt_ref, "gemm_nt_decode"},
};

TEST(GemmBitExactTest, ModelScaleShapes) {
    std::mt19937 gen(7);
    // Shapes the training/inference stack actually hits: decode (M = 1),
    // d_model projections, MLP expansion/contraction, attention score mats.
    const std::size_t shapes[][3] = {
        {1, 64, 256},  {1, 9, 64},     {128, 64, 256}, {128, 256, 64},
        {512, 64, 64}, {512, 128, 128}, {64, 64, 6},    {500, 9, 128},
    };
    for (util::SimdTier tier : bit_exact_tiers()) {
        TierGuard guard(tier);
        for (const auto& k : kKernels) {
            for (const auto& s : shapes) check_shape(k, s[0], s[1], s[2], gen);
        }
    }
}

TEST(GemmBitExactTest, RandomizedShapesIncludingTileEdges) {
    std::mt19937 gen(1234);
    std::uniform_int_distribution<std::size_t> dm(1, 37);
    std::uniform_int_distribution<std::size_t> dk(1, 48);
    std::uniform_int_distribution<std::size_t> dn(1, 70);
    for (util::SimdTier tier : bit_exact_tiers()) {
        TierGuard guard(tier);
        for (int iter = 0; iter < 40; ++iter) {
            const std::size_t m = dm(gen);
            const std::size_t k = dk(gen);
            const std::size_t n = dn(gen);
            for (const auto& ker : kKernels) check_shape(ker, m, k, n, gen);
        }
    }
}

TEST(GemmBitExactTest, NonMultipleOfBlockSizes) {
    std::mt19937 gen(99);
    // Deliberately straddle the 4x8 / 4x4 register tiles and the 256-wide
    // column block: sizes one below/above each boundary.
    const std::size_t shapes[][3] = {
        {3, 5, 7},   {5, 3, 9},    {4, 8, 8},    {7, 11, 255},
        {9, 2, 257}, {33, 17, 63}, {2, 300, 31}, {1, 1, 1},
    };
    for (util::SimdTier tier : bit_exact_tiers()) {
        TierGuard guard(tier);
        for (const auto& k : kKernels) {
            for (const auto& s : shapes) check_shape(k, s[0], s[1], s[2], gen);
        }
    }
}

TEST(GemmBitExactTest, DecodeNtMatchesReferenceForEveryRowCount) {
    std::mt19937 gen(21);
    const Kernel decode{gemm_nt_decode_pooled, gemm_nt_ref, "gemm_nt_decode"};
    for (util::SimdTier tier : bit_exact_tiers()) {
        TierGuard guard(tier);
        for (std::size_t m = 1; m <= 37; ++m) {
            check_shape(decode, m, 33, 29, gen);
            check_shape(decode, m, 64, 40, gen);
        }
    }
}

// Row r of an m-row decode product equals the 1-row product of A's row r,
// bit for bit, on every tier: a decode row's bits never depend on how many
// rows share the batch. The shapes cover a k tail (37), odd column counts,
// and row counts on both sides of every row tile.
TEST(GemmBitExactTest, DecodeNtRowsAreBatchInvariant) {
    std::mt19937 gen(22);
    const std::size_t ks_ns[][2] = {{64, 70}, {37, 33}, {256, 64}, {9, 64}};
    for (util::SimdTier tier : available_tiers()) {
        TierGuard guard(tier);
        for (const auto& kn : ks_ns) {
            const std::size_t k = kn[0], n = kn[1];
            for (std::size_t m : {1, 7, 8, 11, 32, 128}) {
                const auto a = random_floats(m * k, gen);
                const auto b = random_floats(k * n, gen);
                const auto c0 = random_floats(m * n, gen);
                auto c = c0;
                gemm_nt_decode(a.data(), b.data(), c.data(), m, k, n);
                for (std::size_t r = 0; r < m; ++r) {
                    const auto first = c0.begin() + static_cast<std::ptrdiff_t>(r * n);
                    std::vector<float> row(first, first + static_cast<std::ptrdiff_t>(n));
                    gemm_nt_decode(a.data() + r * k, b.data(), row.data(), 1, k, n);
                    ASSERT_EQ(std::memcmp(row.data(), c.data() + r * n, n * sizeof(float)), 0)
                        << "tier " << util::simd_tier_name(tier) << " row " << r << " of m = "
                        << m << " (k " << k << ", n " << n << ")";
                }
            }
        }
    }
}

TEST(GemmBitExactTest, GlobalPoolPathMatchesExplicitPool) {
    std::mt19937 gen(5);
    const std::size_t m = 50, k = 33, n = 29;
    const auto a = random_floats(m * k, gen);
    const auto b = random_floats(k * n, gen);
    const auto c0 = random_floats(m * n, gen);

    for (util::SimdTier tier : bit_exact_tiers()) {
        TierGuard guard(tier);
        auto c_ref = c0;
        gemm_nn_ref(a.data(), b.data(), c_ref.data(), m, k, n);
        util::set_global_threads(4);
        auto c_glob = c0;
        gemm_nn(a.data(), b.data(), c_glob.data(), m, k, n);  // pool = global
        util::set_global_threads(1);
        expect_bitwise_equal(c_glob, c_ref, "gemm_nn(global pool)", m, k, n);
    }
}

}  // namespace
}  // namespace cpt::nn
