// Bit-exactness of the blocked GEMM kernels against the naive reference
// kernels (see the accumulation contract in src/nn/gemm.hpp), pinned on the
// scalar tier. The comparison is memcmp, not tolerance: the scalar kernels —
// gemm_nt_decode and every m = 1 shape included — must produce the same bits
// as the reference for every shape. The decode NT entry is also pinned
// batch-invariant on every tier, avx2 included: row r of an m-row product
// equals the 1-row product of that row. DecodeGemmTest pins the decode
// contract per width: avx2 decode equals the training products (gemm_nt, and
// gemm_nn and gemm_tn over the transposed layouts), the 16-lane tiles equal
// the 8-lane ones, and scalar equals gemm_nt_ref.
// Cross-tier tolerance is nn_simd_parity_test's job.
#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <vector>

#include "nn/gemm.hpp"
#include "nn/simd_detail.hpp"
#include "util/cpu.hpp"

namespace cpt::nn {
namespace {

using GemmFn = void (*)(const float*, const float*, float*, std::size_t, std::size_t, std::size_t);

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

// gemm_nt_decode over B's panel, in the GemmFn shape of the other kernels.
void gemm_nt_decode_packed(const float* a, const float* b, float* c, std::size_t m,
                           std::size_t k, std::size_t n) {
    gemm_nt_decode(a, DecodePanel(b, n, k), c, m);
}

struct Kernel {
    GemmFn blocked;
    GemmFn ref;
    const char* name;
};

void check_shape(const Kernel& kernel, std::size_t m, std::size_t k, std::size_t n,
                 std::mt19937& gen) {
    const auto a = random_floats(m * k, gen);
    const auto b = random_floats(k * n, gen);
    // Kernels accumulate into C, so start all variants from the same nonzero C.
    const auto c0 = random_floats(m * n, gen);

    auto c_ref = c0;
    kernel.ref(a.data(), b.data(), c_ref.data(), m, k, n);
    auto c = c0;
    kernel.blocked(a.data(), b.data(), c.data(), m, k, n);
    expect_bitwise_equal(c, c_ref, kernel.name, m, k, n);
}

const Kernel kKernels[] = {
    {gemm_nn, gemm_nn_ref, "gemm_nn"},
    {gemm_nt, gemm_nt_ref, "gemm_nt"},
    {gemm_tn, gemm_tn_ref, "gemm_tn"},
    {gemm_nt_decode_packed, gemm_nt_ref, "gemm_nt_decode"},
};

TEST(GemmBitExactTest, ModelScaleShapes) {
    std::mt19937 gen(7);
    // Shapes the training/inference stack actually hits: decode (M = 1),
    // d_model projections, MLP expansion/contraction, attention score mats.
    const std::size_t shapes[][3] = {
        {1, 64, 256},  {1, 9, 64},     {128, 64, 256}, {128, 256, 64},
        {512, 64, 64}, {512, 128, 128}, {64, 64, 6},    {500, 9, 128},
    };
    const util::ScopedSimdTier scalar(util::SimdTier::kScalar);
    for (const auto& k : kKernels) {
        for (const auto& s : shapes) check_shape(k, s[0], s[1], s[2], gen);
    }
}

TEST(GemmBitExactTest, RandomizedShapesIncludingTileEdges) {
    std::mt19937 gen(1234);
    std::uniform_int_distribution<std::size_t> dm(1, 37);
    std::uniform_int_distribution<std::size_t> dk(1, 48);
    std::uniform_int_distribution<std::size_t> dn(1, 70);
    const util::ScopedSimdTier scalar(util::SimdTier::kScalar);
    for (int iter = 0; iter < 40; ++iter) {
        const std::size_t m = dm(gen);
        const std::size_t k = dk(gen);
        const std::size_t n = dn(gen);
        for (const auto& ker : kKernels) check_shape(ker, m, k, n, gen);
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
    const util::ScopedSimdTier scalar(util::SimdTier::kScalar);
    for (const auto& k : kKernels) {
        for (const auto& s : shapes) check_shape(k, s[0], s[1], s[2], gen);
    }
}

TEST(GemmBitExactTest, DecodeNtMatchesReferenceForEveryRowCount) {
    std::mt19937 gen(21);
    const Kernel decode{gemm_nt_decode_packed, gemm_nt_ref, "gemm_nt_decode"};
    const util::ScopedSimdTier scalar(util::SimdTier::kScalar);
    for (std::size_t m = 1; m <= 37; ++m) {
        check_shape(decode, m, 33, 29, gen);
        check_shape(decode, m, 64, 40, gen);
    }
}

// Row r of an m-row decode product equals the 1-row product of A's row r,
// bit for bit, on every tier: a decode row's bits never depend on how many
// rows share the batch. The shapes cover a k tail (37), odd column counts,
// and row counts on both sides of every row tile.
TEST(GemmBitExactTest, DecodeNtRowsAreBatchInvariant) {
    std::mt19937 gen(22);
    const std::size_t ks_ns[][2] = {{64, 70}, {37, 33}, {256, 64}, {9, 64}};
    for (util::SimdTier tier : util::available_simd_tiers()) {
        util::ScopedSimdTier guard(tier);
        for (const auto& kn : ks_ns) {
            const std::size_t k = kn[0], n = kn[1];
            for (std::size_t m : {1, 7, 8, 11, 32, 128}) {
                const auto a = random_floats(m * k, gen);
                const auto b = random_floats(k * n, gen);
                const auto c0 = random_floats(m * n, gen);
                const DecodePanel panel(b.data(), n, k);
                auto c = c0;
                gemm_nt_decode(a.data(), panel, c.data(), m);
                for (std::size_t r = 0; r < m; ++r) {
                    const auto first = c0.begin() + static_cast<std::ptrdiff_t>(r * n);
                    std::vector<float> row(first, first + static_cast<std::ptrdiff_t>(n));
                    gemm_nt_decode(a.data() + r * k, panel, row.data(), 1);
                    ASSERT_EQ(std::memcmp(row.data(), c.data() + r * n, n * sizeof(float)), 0)
                        << "tier " << util::simd_tier_name(tier) << " row " << r << " of m = "
                        << m << " (k " << k << ", n " << n << ")";
                }
            }
        }
    }
}

// ---- DecodeGemm: the decode contract per width -------------------------------

// One decode product: rows m, inner k, columns n, A [m, k], B [n, k] and its
// panel, and a nonzero starting C (the kernels accumulate). The same product
// in the training layouts: A transposed [k, m] (gemm_tn's A) and B
// transposed [k, n] (gemm_nn's B), the latter exactly k * n floats so that a
// sanitizer build catches any read past its last column.
struct DecodeCase {
    std::size_t m, k, n;
    std::vector<float> a, b, c0;
    DecodePanel panel;
    std::vector<float> a_t, b_t;
};

std::vector<float> transposed(const std::vector<float>& x, std::size_t rows, std::size_t cols) {
    std::vector<float> t(rows * cols);
    for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t c = 0; c < cols; ++c) t[c * rows + r] = x[r * cols + c];
    }
    return t;
}

// Every (m, k, n) of m in 1..8, 13, 20, 32, 256 (one row through a full row
// tile, a tile plus a remainder, several tiles, a training shard; for n <= 8,
// one or more groups of rows as lanes, with and without rows left over), k in
// {9, 64, 65, 256} (odd, the model widths, one past a vector) and n in {1, 2,
// 6, 17, 64, 192, 256} (lane tails, one vector plus one, whole strips and
// strips plus a tail).
template <class Fn>
void for_each_decode_case(std::uint32_t seed, Fn&& fn) {
    std::mt19937 gen(seed);
    const std::size_t ms[] = {1, 2, 3, 4, 5, 6, 7, 8, 13, 20, 32, 256};
    const std::size_t ks[] = {9, 64, 65, 256};
    const std::size_t ns[] = {1, 2, 6, 17, 64, 192, 256};
    for (std::size_t m : ms) {
        for (std::size_t k : ks) {
            for (std::size_t n : ns) {
                DecodeCase dc{m, k, n, random_floats(m * k, gen), random_floats(n * k, gen),
                              random_floats(m * n, gen), {}, {}, {}};
                dc.panel = DecodePanel(dc.b.data(), n, k);
                dc.a_t = transposed(dc.a, m, k);
                dc.b_t = transposed(dc.b, n, k);
                fn(dc);
                if (::testing::Test::HasFatalFailure()) return;
            }
        }
    }
}

using PanelFn = void (*)(const float*, std::size_t, std::size_t, const float*, std::size_t,
                         float*, std::size_t, std::size_t, std::size_t);

std::vector<float> decode_with(PanelFn fn, const DecodeCase& dc) {
    auto c = dc.c0;
    fn(dc.a.data(), dc.k, 1, dc.panel.data(), dc.panel.stride(), c.data(), dc.m, dc.k, dc.n);
    return c;
}

bool host_has_avx512_tiles() {
    return util::simd_tier_available(util::SimdTier::kAvx2) &&
           util::decode_lanes(util::SimdTier::kAvx2) == 16;
}

// On avx2 the three training layouts and decode are one product: gemm_nn (B
// as [k, n]), gemm_tn (A as [k, m]), gemm_nt and gemm_nt_decode give the same
// bits, and so do the decode tiles at every width the host runs.
TEST(DecodeGemmTest, Avx2RowsEqualTheTrainingProduct) {
    if (!util::simd_tier_available(util::SimdTier::kAvx2)) GTEST_SKIP() << "no avx2 tier";
    const util::ScopedSimdTier avx2(util::SimdTier::kAvx2);
    for_each_decode_case(31, [](const DecodeCase& dc) {
        auto want = dc.c0;
        gemm_nt(dc.a.data(), dc.b.data(), want.data(), dc.m, dc.k, dc.n);
        auto got = dc.c0;
        gemm_nt_decode(dc.a.data(), dc.panel, got.data(), dc.m);
        expect_bitwise_equal(got, want, "gemm_nt_decode vs gemm_nt", dc.m, dc.k, dc.n);
        auto nn = dc.c0;
        gemm_nn(dc.a.data(), dc.b_t.data(), nn.data(), dc.m, dc.k, dc.n);
        expect_bitwise_equal(nn, want, "gemm_nn vs gemm_nt", dc.m, dc.k, dc.n);
        auto tn = dc.c0;
        gemm_tn(dc.a_t.data(), dc.b_t.data(), tn.data(), dc.m, dc.k, dc.n);
        expect_bitwise_equal(tn, want, "gemm_tn vs gemm_nt", dc.m, dc.k, dc.n);
        expect_bitwise_equal(decode_with(detail::gemm_panel_avx2, dc), want,
                             "8-lane tiles vs gemm_nt", dc.m, dc.k, dc.n);
        if (host_has_avx512_tiles()) {
            expect_bitwise_equal(decode_with(detail::gemm_panel_avx512, dc), want,
                                 "16-lane tiles vs gemm_nt", dc.m, dc.k, dc.n);
        }
    });
}

TEST(DecodeGemmTest, SixteenLanesEqualEightLanes) {
    if (!host_has_avx512_tiles()) GTEST_SKIP() << "host or binary lacks the AVX-512F tiles";
    for_each_decode_case(32, [](const DecodeCase& dc) {
        expect_bitwise_equal(decode_with(detail::gemm_panel_avx512, dc),
                             decode_with(detail::gemm_panel_avx2, dc),
                             "16-lane vs 8-lane tiles", dc.m, dc.k, dc.n);
    });
}

TEST(DecodeGemmTest, ScalarPanelEqualsReference) {
    const util::ScopedSimdTier scalar(util::SimdTier::kScalar);
    for_each_decode_case(33, [](const DecodeCase& dc) {
        auto want = dc.c0;
        gemm_nt_ref(dc.a.data(), dc.b.data(), want.data(), dc.m, dc.k, dc.n);
        auto got = dc.c0;
        gemm_nt_decode(dc.a.data(), dc.panel, got.data(), dc.m);
        expect_bitwise_equal(got, want, "scalar gemm_nt_decode vs gemm_nt_ref", dc.m, dc.k,
                             dc.n);
    });
}

// Row r computed alone equals row r computed among the others, through the
// dispatcher on every tier and through each width's tiles directly.
TEST(DecodeGemmTest, RowAloneEqualsRowAmongOthers) {
    std::vector<std::pair<const char*, PanelFn>> widths;
    if (util::simd_tier_available(util::SimdTier::kAvx2)) {
        widths.emplace_back("8-lane", detail::gemm_panel_avx2);
    }
    if (host_has_avx512_tiles()) widths.emplace_back("16-lane", detail::gemm_panel_avx512);
    for_each_decode_case(34, [&](const DecodeCase& dc) {
        const auto n = static_cast<std::ptrdiff_t>(dc.n);
        for (util::SimdTier tier : util::available_simd_tiers()) {
            const util::ScopedSimdTier guard(tier);
            auto all = dc.c0;
            gemm_nt_decode(dc.a.data(), dc.panel, all.data(), dc.m);
            for (std::size_t r = 0; r < dc.m; ++r) {
                const auto first = dc.c0.begin() + static_cast<std::ptrdiff_t>(r) * n;
                std::vector<float> row(first, first + n);
                gemm_nt_decode(dc.a.data() + r * dc.k, dc.panel, row.data(), 1);
                ASSERT_EQ(std::memcmp(row.data(), all.data() + r * dc.n, dc.n * sizeof(float)), 0)
                    << "tier " << util::simd_tier_name(tier) << " row " << r << " of (" << dc.m
                    << ", " << dc.k << ", " << dc.n << ")";
            }
        }
        for (const auto& [name, fn] : widths) {
            const auto all = decode_with(fn, dc);
            for (std::size_t r = 0; r < dc.m; ++r) {
                const auto first = dc.c0.begin() + static_cast<std::ptrdiff_t>(r) * n;
                std::vector<float> row(first, first + n);
                fn(dc.a.data() + r * dc.k, dc.k, 1, dc.panel.data(), dc.panel.stride(),
                   row.data(), 1, dc.k, dc.n);
                ASSERT_EQ(std::memcmp(row.data(), all.data() + r * dc.n, dc.n * sizeof(float)), 0)
                    << name << " row " << r << " of (" << dc.m << ", " << dc.k << ", " << dc.n
                    << ")";
            }
        }
    });
}

}  // namespace
}  // namespace cpt::nn
