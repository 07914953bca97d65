// Parity and determinism contract of the training-path kernels
// (nn/kernels.hpp "Backward kernels" + "Optimizer kernels"):
//   * every dispatched kernel gives the same bytes on every available tier
//     (one body, kernels_inl.hpp) and stays within tolerance of its serial
//     *_ref (the body's FMA and fixed-tree reductions reassociate);
//   * cross-row reductions (col_sum_rows, layer_norm dgain/dbias) equal the
//     serial ascending-row sum bit for bit on every tier;
//   * the Adam gscale fold equals pre-scaling the gradient.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <random>
#include <vector>

#include "nn/kernels.hpp"
#include "util/cpu.hpp"

namespace cpt::nn {
namespace {

using util::SimdTier;

std::vector<float> random_floats(std::size_t n, std::mt19937& gen, float lo = -1.0f,
                                 float hi = 1.0f) {
    std::uniform_real_distribution<float> dist(lo, hi);
    std::vector<float> v(n);
    for (float& x : v) x = dist(gen);
    return v;
}

bool same_bytes(const void* a, const void* b, std::size_t n) { return std::memcmp(a, b, n) == 0; }

// Small relative tolerance against the serial reference on every tier (FMA +
// fixed-tree reductions), and the same bytes as the first tier checked, whose
// output `first` keeps.
void expect_tier_match(const std::vector<float>& got, const std::vector<float>& want,
                       std::vector<float>& first, const char* what) {
    ASSERT_EQ(got.size(), want.size()) << what;
    for (std::size_t i = 0; i < got.size(); ++i) {
        const float tol = 1e-4f * std::max(1.0f, std::abs(want[i]));
        EXPECT_NEAR(got[i], want[i], tol) << what << " at " << i;
    }
    if (first.empty()) {
        first = got;
        return;
    }
    EXPECT_TRUE(same_bytes(got.data(), first.data(), got.size() * sizeof(float)))
        << what << " differs across tiers";
}

constexpr std::size_t kRows = 17;
constexpr std::size_t kDim = 37;  // odd width exercises the SIMD tails

TEST(TrainKernelsTest, SoftmaxBackwardMatchesRefAcrossTiers) {
    std::mt19937 gen(101);
    const auto logits = random_floats(kRows * kDim, gen, -2.0f, 2.0f);
    const auto g = random_floats(kRows * kDim, gen);
    std::vector<float> y(kRows * kDim);
    for (std::size_t r = 0; r < kRows; ++r) {
        kernels::softmax_row(logits.data() + r * kDim, y.data() + r * kDim, kDim, kDim);
    }
    std::vector<float> want(kRows * kDim, 0.0f);
    for (std::size_t r = 0; r < kRows; ++r) {
        kernels::softmax_backward_row_ref(y.data() + r * kDim, g.data() + r * kDim,
                                          want.data() + r * kDim, kDim);
    }
    std::vector<float> first;
    for (SimdTier tier : util::available_simd_tiers()) {
        util::ScopedSimdTier guard(tier);
        std::vector<float> got(kRows * kDim, 0.0f);
        kernels::softmax_backward_rows(y.data(), g.data(), got.data(), kRows, kDim);
        expect_tier_match(got, want, first, "softmax_backward_rows");
    }
}

TEST(TrainKernelsTest, SoftmaxBackwardCausalRespectsMask) {
    constexpr std::size_t kT = 11;
    constexpr std::size_t kMats = 3;
    std::mt19937 gen(102);
    const auto logits = random_floats(kMats * kT * kT, gen, -2.0f, 2.0f);
    const auto g = random_floats(kMats * kT * kT, gen);
    std::vector<float> y(kMats * kT * kT, 0.0f);
    for (std::size_t m = 0; m < kMats; ++m) {
        for (std::size_t r = 0; r < kT; ++r) {
            const std::size_t off = (m * kT + r) * kT;
            kernels::softmax_row(logits.data() + off, y.data() + off, kT, r + 1);
        }
    }
    std::vector<float> want(kMats * kT * kT, 0.0f);
    for (std::size_t m = 0; m < kMats; ++m) {
        for (std::size_t r = 0; r < kT; ++r) {
            const std::size_t off = (m * kT + r) * kT;
            kernels::softmax_backward_row_ref(y.data() + off, g.data() + off, want.data() + off,
                                              r + 1);
        }
    }
    std::vector<float> first;
    for (SimdTier tier : util::available_simd_tiers()) {
        util::ScopedSimdTier guard(tier);
        std::vector<float> got(kMats * kT * kT, 0.0f);
        kernels::softmax_backward_causal(y.data(), g.data(), got.data(), kMats, kT);
        expect_tier_match(got, want, first, "softmax_backward_causal");
        // Masked entries (column > row) must stay untouched.
        for (std::size_t m = 0; m < kMats; ++m) {
            for (std::size_t r = 0; r < kT; ++r) {
                for (std::size_t c = r + 1; c < kT; ++c) {
                    EXPECT_EQ(got[(m * kT + r) * kT + c], 0.0f);
                }
            }
        }
    }
}

TEST(TrainKernelsTest, SoftmaxXentMatchesUnfusedComposition) {
    std::mt19937 gen(103);
    const auto logits = random_floats(kRows * kDim, gen, -2.0f, 2.0f);
    std::vector<int> targets(kRows);
    for (std::size_t r = 0; r < kRows; ++r) {
        targets[r] = (r % 5 == 0) ? -1 : static_cast<int>((r * 7) % kDim);
    }
    // Unfused reference: softmax_row then float-log NLL, as the historical
    // cross_entropy op computed it.
    std::vector<float> want_probs(kRows * kDim);
    std::vector<double> want_loss(kRows, 0.0);
    for (std::size_t r = 0; r < kRows; ++r) {
        kernels::softmax_row(logits.data() + r * kDim, want_probs.data() + r * kDim, kDim, kDim);
        if (targets[r] < 0) continue;
        const float p = want_probs[r * kDim + static_cast<std::size_t>(targets[r])];
        want_loss[r] = -static_cast<double>(std::log(std::max(p, 1e-12f)));
    }
    for (SimdTier tier : util::available_simd_tiers()) {
        util::ScopedSimdTier guard(tier);
        std::vector<float> probs(kRows * kDim, 0.0f);
        std::vector<double> rowloss(kRows, -1.0);
        kernels::softmax_xent_rows(logits.data(), probs.data(), targets.data(), -1,
                                   rowloss.data(), kRows, kDim);
        // Softmax is bit-identical across tiers by design, and the fused NLL
        // must reproduce the historical float-log value exactly.
        for (std::size_t i = 0; i < probs.size(); ++i) {
            EXPECT_EQ(probs[i], want_probs[i]) << "probs at " << i;
        }
        for (std::size_t r = 0; r < kRows; ++r) {
            EXPECT_EQ(rowloss[r], want_loss[r]) << "rowloss at " << r;
        }
    }
}

TEST(TrainKernelsTest, XentBackwardMatchesRefAcrossTiers) {
    std::mt19937 gen(104);
    const auto probs = random_floats(kRows * kDim, gen, 0.0f, 1.0f);
    std::vector<int> targets(kRows);
    for (std::size_t r = 0; r < kRows; ++r) {
        targets[r] = (r % 4 == 0) ? -1 : static_cast<int>((r * 3) % kDim);
    }
    const float gscale = 0.37f;
    std::vector<float> want(kRows * kDim, 0.5f);
    for (std::size_t r = 0; r < kRows; ++r) {
        if (targets[r] < 0) continue;
        kernels::xent_backward_row_ref(probs.data() + r * kDim, targets[r],
                                       want.data() + r * kDim, gscale, kDim);
    }
    for (SimdTier tier : util::available_simd_tiers()) {
        util::ScopedSimdTier guard(tier);
        std::vector<float> got(kRows * kDim, 0.5f);
        kernels::xent_backward_rows(probs.data(), targets.data(), -1, got.data(), gscale, kRows,
                                    kDim);
        // Every tier runs the reference itself.
        EXPECT_TRUE(same_bytes(got.data(), want.data(), got.size() * sizeof(float)))
            << "xent_backward_rows on " << util::simd_tier_name(tier);
    }
}

TEST(TrainKernelsTest, LayerNormBackwardMatchesRef) {
    std::mt19937 gen(105);
    const auto x = random_floats(kRows * kDim, gen, -2.0f, 2.0f);
    const auto gain = random_floats(kDim, gen, 0.5f, 1.5f);
    const auto bias = random_floats(kDim, gen);
    const auto g = random_floats(kRows * kDim, gen);
    std::vector<float> y(kRows * kDim);
    std::vector<float> stats(kRows * 2);
    kernels::layer_norm_rows(x.data(), y.data(), gain.data(), bias.data(), kRows, kDim, 1e-5f,
                             stats.data());
    // Reference: per-row dx ref + serial ascending-row dgain/dbias.
    std::vector<float> want_dx(kRows * kDim, 0.0f);
    std::vector<float> want_dgain(kDim, 0.0f);
    std::vector<float> want_dbias(kDim, 0.0f);
    for (std::size_t r = 0; r < kRows; ++r) {
        const float mean = stats[r * 2];
        const float inv = stats[r * 2 + 1];
        kernels::layer_norm_backward_row_ref(x.data() + r * kDim, gain.data(),
                                             g.data() + r * kDim, mean, inv,
                                             want_dx.data() + r * kDim, kDim);
        for (std::size_t j = 0; j < kDim; ++j) {
            want_dgain[j] += g[r * kDim + j] * ((x[r * kDim + j] - mean) * inv);
            want_dbias[j] += g[r * kDim + j];
        }
    }
    std::vector<float> first_dx;
    for (SimdTier tier : util::available_simd_tiers()) {
        util::ScopedSimdTier guard(tier);
        std::vector<float> dx(kRows * kDim, 0.0f);
        std::vector<float> dgain(kDim, 0.0f);
        std::vector<float> dbias(kDim, 0.0f);
        kernels::layer_norm_backward_rows(x.data(), gain.data(), g.data(), stats.data(), dx.data(),
                                          dgain.data(), dbias.data(), kRows, kDim);
        expect_tier_match(dx, want_dx, first_dx, "layer_norm_backward dx");
        // dgain/dbias accumulate ascending rows per column: bit-identical on
        // every tier.
        for (std::size_t j = 0; j < kDim; ++j) {
            EXPECT_EQ(dgain[j], want_dgain[j]) << "dgain at " << j;
            EXPECT_EQ(dbias[j], want_dbias[j]) << "dbias at " << j;
        }
    }
}

TEST(TrainKernelsTest, ColSumRowsMatchesSerialReference) {
    std::mt19937 gen(106);
    const auto src = random_floats(kRows * kDim, gen);
    std::vector<float> want(kDim, 0.25f);
    for (std::size_t r = 0; r < kRows; ++r) {
        for (std::size_t j = 0; j < kDim; ++j) want[j] += src[r * kDim + j];
    }
    std::vector<float> dst(kDim, 0.25f);
    kernels::col_sum_rows(src.data(), dst.data(), kRows, kDim);
    for (std::size_t j = 0; j < kDim; ++j) EXPECT_EQ(dst[j], want[j]) << "col " << j;
}

TEST(TrainKernelsTest, BiasGeluBackwardMatchesChain) {
    std::mt19937 gen(107);
    // [-10, 10] reaches the saturated tails of gelu' on both sides.
    const auto x = random_floats(kRows * kDim, gen, -10.0f, 10.0f);
    const auto bias = random_floats(kDim, gen);
    const auto g = random_floats(kRows * kDim, gen);
    // Chain reference: t = g * gelu'(x + bias); dx += t; dbias[j] = sum_r t.
    std::vector<float> want_dx(kRows * kDim, 0.125f);
    std::vector<float> want_t(kRows * kDim);
    for (std::size_t r = 0; r < kRows; ++r) {
        for (std::size_t j = 0; j < kDim; ++j) {
            const float u = x[r * kDim + j] + bias[j];
            want_t[r * kDim + j] = g[r * kDim + j] * kernels::gelu_grad_scalar(u);
            want_dx[r * kDim + j] += want_t[r * kDim + j];
        }
    }
    std::vector<float> first_dx, first_t;
    for (SimdTier tier : util::available_simd_tiers()) {
        util::ScopedSimdTier guard(tier);
        std::vector<float> dx(kRows * kDim, 0.125f);
        std::vector<float> scratch(kRows * kDim, -7.0f);
        kernels::bias_gelu_backward_rows(x.data(), bias.data(), g.data(), dx.data(),
                                         scratch.data(), kRows, kDim);
        expect_tier_match(dx, want_dx, first_dx, "bias_gelu_backward dx");
        expect_tier_match(scratch, want_t, first_t, "bias_gelu_backward scratch");
    }
}

TEST(TrainKernelsTest, SqnormChainsCarryLikeOneSerialLoop) {
    std::mt19937 gen(108);
    const auto a = random_floats(101, gen);
    const auto b = random_floats(57, gen);
    double want = 0.0;
    for (float v : a) want += static_cast<double>(v) * v;
    for (float v : b) want += static_cast<double>(v) * v;
    std::vector<double> per_tier;
    for (SimdTier tier : util::available_simd_tiers()) {
        util::ScopedSimdTier guard(tier);
        const double got = kernels::sqnorm(b.data(), b.size(), kernels::sqnorm(a.data(), a.size()));
        EXPECT_NEAR(got, want, 1e-9 * std::max(1.0, want));
        per_tier.push_back(got);
    }
    for (const double got : per_tier) {
        EXPECT_TRUE(same_bytes(&got, per_tier.data(), sizeof got)) << "sqnorm differs across tiers";
    }
}

TEST(TrainKernelsTest, AdamUpdateMatchesRefAndGscaleFoldsExactly) {
    constexpr std::size_t kN = 131;
    std::mt19937 gen(109);
    const auto w0 = random_floats(kN, gen);
    const auto g = random_floats(kN, gen);
    const auto m0 = random_floats(kN, gen, 0.0f, 0.1f);
    const auto v0 = random_floats(kN, gen, 0.0f, 0.1f);
    const float lr = 1e-3f, beta1 = 0.9f, beta2 = 0.999f, eps = 1e-8f, wd = 0.01f;
    const float bc1 = 1.0f - std::pow(beta1, 3.0f);
    const float bc2 = 1.0f - std::pow(beta2, 3.0f);
    const float gscale = 0.42f;

    // Fold reference: pre-scale the gradient, then update with gscale = 1.
    std::vector<float> want_w = w0, want_m = m0, want_v = v0;
    std::vector<float> scaled(kN);
    for (std::size_t i = 0; i < kN; ++i) scaled[i] = g[i] * gscale;
    kernels::adam_update_ref(want_w.data(), scaled.data(), want_m.data(), want_v.data(), kN, lr,
                             beta1, beta2, eps, wd, bc1, bc2, 1.0f);

    std::vector<float> first_w, first_m, first_v;
    for (SimdTier tier : util::available_simd_tiers()) {
        util::ScopedSimdTier guard(tier);
        std::vector<float> w = w0, m = m0, v = v0;
        kernels::adam_update(w.data(), g.data(), m.data(), v.data(), kN, lr, beta1, beta2, eps,
                             wd, bc1, bc2, gscale);
        expect_tier_match(w, want_w, first_w, "adam w");
        expect_tier_match(m, want_m, first_m, "adam m");
        expect_tier_match(v, want_v, first_v, "adam v");
        // The fold itself is exact: the same kernel on the pre-scaled gradient.
        std::vector<float> w1 = w0, m1 = m0, v1 = v0;
        kernels::adam_update(w1.data(), scaled.data(), m1.data(), v1.data(), kN, lr, beta1, beta2,
                             eps, wd, bc1, bc2, 1.0f);
        EXPECT_TRUE(same_bytes(w1.data(), w.data(), kN * sizeof(float)));
        EXPECT_TRUE(same_bytes(m1.data(), m.data(), kN * sizeof(float)));
        EXPECT_TRUE(same_bytes(v1.data(), v.data(), kN * sizeof(float)));
    }
}

}  // namespace
}  // namespace cpt::nn
