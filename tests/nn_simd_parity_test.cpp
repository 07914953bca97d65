// Parity and determinism contract of the runtime-dispatched SIMD kernel
// layer (util/cpu.hpp, nn/gemm.hpp, nn/kernels.hpp):
//   * every available tier agrees with the scalar tier within tolerance on
//     the GEMMs (GEMM and the m = 1 decode GEMV);
//   * every other kernel is bit-identical across tiers (one body,
//     kernels_inl.hpp): softmax and decode attention, the fused elementwise
//     kernels, and the bytes of all ten pinned against committed digests;
//     the add/mul exp of softmax is pinned against std::exp;
//   * within a fixed tier, the full Sampler::generate pipeline is
//     byte-identical across thread counts.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>
#include <random>
#include <vector>

#include "core/model.hpp"
#include "core/sampler.hpp"
#include "nn/gemm.hpp"
#include "nn/kernels.hpp"
#include "trace/synthetic.hpp"
#include "util/cpu.hpp"
#include "util/thread_pool.hpp"

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

void expect_near_all(const std::vector<float>& got, const std::vector<float>& want, float tol,
                     const char* what) {
    ASSERT_EQ(got.size(), want.size()) << what;
    for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_NEAR(got[i], want[i], tol) << what << " index " << i;
    }
}

void expect_same_bits(const std::vector<float>& a, const std::vector<float>& b,
                      const char* what) {
    ASSERT_EQ(a.size(), b.size()) << what;
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0) << what;
}

using GemmFn = void (*)(const float*, const float*, float*, std::size_t, std::size_t, std::size_t);

// gemm_nt_decode over B's panel, in the GemmFn shape of the other kernels.
void gemm_nt_decode_packed(const float* a, const float* b, float* c, std::size_t m,
                           std::size_t k, std::size_t n) {
    gemm_nt_decode(a, DecodePanel(b, n, k), c, m);
}

// Every tier must agree with the scalar tier within tolerance — for all
// three layouts and the decode NT entry, including the m = 1 shapes routed
// to the GEMV fast path.
TEST(SimdParityTest, GemmAgreesAcrossTiers) {
    const GemmFn fns[] = {gemm_nn, gemm_nt, gemm_tn, gemm_nt_decode_packed};
    const char* names[] = {"gemm_nn", "gemm_nt", "gemm_tn", "gemm_nt_decode"};
    const std::size_t shapes[][3] = {
        {1, 64, 256}, {1, 128, 128}, {1, 9, 64},  {1, 300, 31},
        {4, 16, 16},  {37, 48, 70},  {128, 64, 256}, {33, 17, 255},
    };
    std::mt19937 gen(11);
    for (const auto& s : shapes) {
        const std::size_t m = s[0], k = s[1], n = s[2];
        const auto a = random_floats(m * k, gen);
        const auto b = random_floats(k * n, gen);
        const auto c0 = random_floats(m * n, gen);
        for (std::size_t f = 0; f < std::size(fns); ++f) {
            std::vector<float> scalar_out;
            for (SimdTier tier : util::available_simd_tiers()) {
                util::ScopedSimdTier guard(tier);
                auto c1 = c0;
                fns[f](a.data(), b.data(), c1.data(), m, k, n);
                if (tier == SimdTier::kScalar) {
                    scalar_out = std::move(c1);
                } else {
                    // Inputs are in [-1, 1] and k <= 300, so 5e-4 comfortably
                    // covers FMA/reassociation drift between tiers.
                    expect_near_all(c1, scalar_out, 5e-4f, names[f]);
                }
            }
        }
    }
}

// Softmax rows of every tail length 1..17 plus 64 and 300, fully valid and
// with valid < len, over inputs spanning +-100: -inf entries, and entries
// whose shifted value underflows to 0 or to a subnormal under std::exp.
TEST(SimdParityTest, SoftmaxIsBitIdenticalAcrossTiers) {
    constexpr float kInf = std::numeric_limits<float>::infinity();
    std::mt19937 gen(5);
    std::vector<std::size_t> lens;
    for (std::size_t len = 1; len <= 17; ++len) lens.push_back(len);
    lens.push_back(64);
    lens.push_back(300);
    for (std::size_t len : lens) {
        for (std::size_t valid : {len, len / 2, len > 1 ? len - 1 : std::size_t{0}}) {
            auto in = random_floats(len, gen, -100.0f, 100.0f);
            if (len >= 4) {
                // The row max is near +100, so these shift to about -190
                // (std::exp gives 0), -87.5 and -95 (subnormal under
                // std::exp) and -inf.
                in[0] = 100.0f;
                in[1] = -90.0f;
                in[2] = 12.5f;
                in[3] = 5.0f;
                in[len - 1] = -kInf;
            }
            std::vector<float> scalar_out;
            for (SimdTier tier : util::available_simd_tiers()) {
                util::ScopedSimdTier guard(tier);
                std::vector<float> out(len, 7.0f);
                kernels::softmax_row(in.data(), out.data(), len, valid);
                for (std::size_t j = valid; j < len; ++j) ASSERT_EQ(out[j], 0.0f);
                if (tier == SimdTier::kScalar) {
                    scalar_out = std::move(out);
                } else {
                    expect_same_bits(out, scalar_out, "softmax_row");
                }
            }
        }
    }
}

// NaN policy, the same on both tiers: a NaN entry is skipped by the max,
// yields NaN in its own slot and 0 everywhere else (the normaliser is NaN).
TEST(SimdParityTest, SoftmaxNanPolicyMatchesAcrossTiers) {
    std::vector<float> in(11);
    for (std::size_t j = 0; j < in.size(); ++j) in[j] = static_cast<float>(j) * 0.5f - 2.0f;
    in[9] = std::numeric_limits<float>::quiet_NaN();
    for (SimdTier tier : util::available_simd_tiers()) {
        util::ScopedSimdTier guard(tier);
        std::vector<float> out(in.size());
        kernels::softmax_row(in.data(), out.data(), in.size(), in.size());
        for (std::size_t j = 0; j < in.size(); ++j) {
            if (j == 9) {
                EXPECT_TRUE(std::isnan(out[j])) << util::simd_tier_name(tier);
            } else {
                EXPECT_EQ(out[j], 0.0f) << util::simd_tier_name(tier) << " j=" << j;
            }
        }
    }
}

// The add/mul exp of softmax and attention against std::exp: at most one
// ulp over [kExpMin, kExpMax] (an exhaustive scan of every float there
// measured 1 ulp against std::exp and 0.990 ulp against the exact value; this
// samples every 251st float), exact at 0, 0 below the clamp, never
// subnormal, saturating above it, NaN for NaN.
TEST(SimdParityTest, ExpAddMulIsWithinOneUlpOfStdExp) {
    using kernels::exp_addmul;
    std::int64_t worst = 0;
    float worst_at = 0.0f;
    const auto check = [&](float x) {
        const float got = exp_addmul(x);
        const float want = std::exp(x);
        const std::int64_t d = std::bit_cast<std::int32_t>(got) - std::bit_cast<std::int32_t>(want);
        if (std::abs(d) > worst) {
            worst = std::abs(d);
            worst_at = x;
        }
    };
    for (std::uint32_t b = std::bit_cast<std::uint32_t>(kernels::kExpMin); b > 0x80000000u;
         b -= std::min<std::uint32_t>(251, b - 0x80000000u)) {
        check(std::bit_cast<float>(b));
    }
    for (std::uint32_t b = 0; b <= std::bit_cast<std::uint32_t>(kernels::kExpMax); b += 251) {
        check(std::bit_cast<float>(b));
    }
    check(kernels::kExpMin);
    check(kernels::kExpMax);
    EXPECT_LE(worst, 1) << "at x = " << worst_at;

    EXPECT_EQ(exp_addmul(0.0f), 1.0f);
    EXPECT_EQ(exp_addmul(-0.0f), 1.0f);
    EXPECT_GE(exp_addmul(kernels::kExpMin), std::numeric_limits<float>::min());
    EXPECT_EQ(exp_addmul(std::nextafter(kernels::kExpMin, -1000.0f)), 0.0f);
    EXPECT_EQ(exp_addmul(-std::numeric_limits<float>::infinity()), 0.0f);
    EXPECT_EQ(exp_addmul(std::numeric_limits<float>::infinity()), exp_addmul(kernels::kExpMax));
    EXPECT_TRUE(std::isfinite(exp_addmul(kernels::kExpMax)));
    EXPECT_TRUE(std::isnan(exp_addmul(std::numeric_limits<float>::quiet_NaN())));
}

// The fused decode attention head, one call per (row, head): scalar and
// avx2 write the same context bytes for every key count 1..130 and the
// decoder head widths 8..64 plus tails (3, 12, 72).
TEST(SimdParityTest, AttentionIsBitIdenticalAcrossTiers) {
    std::mt19937 gen(23);
    constexpr std::size_t kMaxKeys = 130;
    for (std::size_t dh : {8u, 16u, 32u, 64u, 3u, 12u, 72u}) {
        // Wide query magnitudes push some scores far below the max, so the
        // exp's clamp and small outputs are exercised too.
        const float qmag = dh >= 32 ? 4.0f : 2.0f;
        const auto q = random_floats(dh, gen, -qmag, qmag);
        const auto k = random_floats(kMaxKeys * dh, gen, -2.0f, 2.0f);
        const auto v = random_floats(kMaxKeys * dh, gen);
        const float scale = 1.0f / std::sqrt(static_cast<float>(dh));
        for (std::size_t n = 1; n <= kMaxKeys; ++n) {
            // The kernels read exactly n rows: keys past n sit outside these
            // copies.
            const std::vector<float> kn(k.begin(), k.begin() + static_cast<std::ptrdiff_t>(n * dh));
            const std::vector<float> vn(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(n * dh));
            std::vector<float> ref;
            for (SimdTier tier : util::available_simd_tiers()) {
                util::ScopedSimdTier guard(tier);
                std::vector<float> scores(n);
                std::vector<float> ctx(dh, 9.0f);
                kernels::attention_head(q.data(), kn.data(), vn.data(), scores.data(), ctx.data(),
                                        n, dh, scale);
                if (tier == SimdTier::kScalar) {
                    ref = std::move(ctx);
                    continue;
                }
                ASSERT_EQ(std::memcmp(ctx.data(), ref.data(), dh * sizeof(float)), 0)
                    << "dh " << dh << " n " << n;
            }
        }
    }
}

// ---- Pinned kernel bytes -------------------------------------------------------
// FNV-1a 64 of every non-GEMM kernel's output over a seeded grid: widths
// 1-17, 37, 64, 100 and 256 (every 8-lane tail), attention at n 1-130 and dh
// 8, 12, 16, 32, 64, softmax rows with +-inf, NaN and underflowing entries,
// and sqnorm and adam_update at n 1-131 and 120003. Every input vector holds
// exactly the elements a call may read, so asan sees any tail over-read. A
// NaN enters the digest as one canonical pattern: its payload follows the
// operand order of whichever op made it, which the compiler may commute.

struct Fnv {
    std::uint64_t h = 0xcbf29ce484222325ull;
    void bytes(const void* p, std::size_t n) {
        const auto* b = static_cast<const unsigned char*>(p);
        for (std::size_t i = 0; i < n; ++i) {
            h ^= b[i];
            h *= 0x100000001b3ull;
        }
    }
    void add(const std::vector<float>& v) {
        for (float x : v) {
            const float c = std::isnan(x) ? std::numeric_limits<float>::quiet_NaN() : x;
            bytes(&c, sizeof c);
        }
    }
    void add(double x) { bytes(&x, sizeof x); }
};

std::vector<std::size_t> pin_widths() {
    std::vector<std::size_t> w;
    for (std::size_t d = 1; d <= 17; ++d) w.push_back(d);
    for (std::size_t d : {37u, 64u, 100u, 256u}) w.push_back(d);
    return w;
}

std::vector<std::size_t> pin_lengths() {
    std::vector<std::size_t> n;
    for (std::size_t i = 1; i <= 131; ++i) n.push_back(i);
    n.push_back(120003);
    return n;
}

// Softmax outputs of random logits, one row of d per r, as the backward
// kernels' y.
std::vector<float> softmax_of_random(std::size_t rows, std::size_t d, std::mt19937& gen) {
    auto y = random_floats(rows * d, gen, -3.0f, 3.0f);
    kernels::softmax_rows(y.data(), y.data(), rows, d);
    return y;
}

std::uint64_t pin_layer_norm_row() {
    std::mt19937 gen(301);
    Fnv f;
    for (std::size_t d : pin_widths()) {
        const auto in = random_floats(d, gen, -2.0f, 2.0f);
        const auto gain = random_floats(d, gen, 0.5f, 1.5f);
        const auto bias = random_floats(d, gen);
        std::vector<float> out(d);
        std::vector<float> stats(2);
        kernels::layer_norm_row(in.data(), out.data(), gain.data(), bias.data(), d, 1e-5f,
                                stats.data());
        f.add(out);
        f.add(stats);
    }
    return f.h;
}

std::uint64_t pin_add_bias_row() {
    std::mt19937 gen(302);
    Fnv f;
    for (std::size_t d : pin_widths()) {
        auto row = random_floats(d, gen);
        const auto bias = random_floats(d, gen);
        kernels::add_bias_row(row.data(), bias.data(), d);
        f.add(row);
    }
    return f.h;
}

std::uint64_t pin_bias_gelu_row() {
    std::mt19937 gen(303);
    Fnv f;
    for (std::size_t d : pin_widths()) {
        auto row = random_floats(d, gen, -10.0f, 10.0f);
        const auto bias = random_floats(d, gen);
        kernels::bias_gelu_row(row.data(), bias.data(), d);
        f.add(row);
    }
    return f.h;
}

std::uint64_t pin_bias_gelu_backward_row() {
    std::mt19937 gen(304);
    Fnv f;
    for (std::size_t d : pin_widths()) {
        const std::size_t rows = 2;
        const auto x = random_floats(rows * d, gen, -10.0f, 10.0f);
        const auto bias = random_floats(d, gen);
        const auto g = random_floats(rows * d, gen);
        auto dx = random_floats(rows * d, gen);
        std::vector<float> scratch(rows * d);
        kernels::bias_gelu_backward_rows(x.data(), bias.data(), g.data(), dx.data(),
                                         scratch.data(), rows, d);
        f.add(dx);
        f.add(scratch);
        kernels::bias_gelu_backward_rows(x.data(), bias.data(), g.data(), nullptr,
                                         scratch.data(), rows, d);
        f.add(scratch);
    }
    return f.h;
}

std::uint64_t pin_softmax_backward_row() {
    std::mt19937 gen(305);
    Fnv f;
    for (std::size_t d : pin_widths()) {
        const std::size_t rows = 2;
        const auto y = softmax_of_random(rows, d, gen);
        const auto g = random_floats(rows * d, gen);
        auto dx = random_floats(rows * d, gen);
        kernels::softmax_backward_rows(y.data(), g.data(), dx.data(), rows, d);
        f.add(dx);
    }
    // Causal rows of every valid length 1..37.
    const std::size_t t = 37;
    auto y = random_floats(2 * t * t, gen, -3.0f, 3.0f);
    for (std::size_t r = 0; r < 2 * t; ++r) {
        kernels::softmax_row(y.data() + r * t, y.data() + r * t, t, r % t + 1);
    }
    const auto g = random_floats(2 * t * t, gen);
    auto dx = random_floats(2 * t * t, gen);
    kernels::softmax_backward_causal(y.data(), g.data(), dx.data(), 2, t);
    f.add(dx);
    return f.h;
}

std::uint64_t pin_layer_norm_backward_row() {
    std::mt19937 gen(306);
    Fnv f;
    for (std::size_t d : pin_widths()) {
        const std::size_t rows = 2;
        const auto x = random_floats(rows * d, gen, -2.0f, 2.0f);
        const auto gain = random_floats(d, gen, 0.5f, 1.5f);
        const auto g = random_floats(rows * d, gen);
        const std::vector<float> stats = {0.1f, 1.3f, -0.2f, 0.7f};
        auto dx = random_floats(rows * d, gen);
        kernels::layer_norm_backward_rows(x.data(), gain.data(), g.data(), stats.data(),
                                          dx.data(), nullptr, nullptr, rows, d);
        f.add(dx);
    }
    return f.h;
}

std::uint64_t pin_sqnorm() {
    std::mt19937 gen(307);
    Fnv f;
    for (std::size_t n : pin_lengths()) {
        const auto x = random_floats(n, gen, -3.0f, 3.0f);
        f.add(kernels::sqnorm(x.data(), n, 0.75));
    }
    return f.h;
}

std::uint64_t pin_adam_update() {
    std::mt19937 gen(308);
    Fnv f;
    for (std::size_t n : pin_lengths()) {
        auto w = random_floats(n, gen);
        const auto g = random_floats(n, gen);
        auto m = random_floats(n, gen, -0.1f, 0.1f);
        auto v = random_floats(n, gen, 0.0f, 0.1f);
        kernels::adam_update(w.data(), g.data(), m.data(), v.data(), n, 1e-3f, 0.9f, 0.999f,
                             1e-8f, 0.01f, 0.271f, 0.003f, 0.42f);
        f.add(w);
        f.add(m);
        f.add(v);
    }
    return f.h;
}

std::uint64_t pin_softmax_row() {
    constexpr float kInf = std::numeric_limits<float>::infinity();
    constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
    std::mt19937 gen(309);
    Fnv f;
    for (std::size_t len : pin_widths()) {
        for (std::size_t valid : {len, len / 2, len - 1}) {
            // Plain, then -inf and underflow (shifted values near -190, -87.5
            // and -95), then +inf, then NaN.
            for (int kind = 0; kind < 4; ++kind) {
                auto in = random_floats(len, gen, -100.0f, 100.0f);
                if (kind == 1 && len >= 4) {
                    in[0] = 100.0f;
                    in[1] = -90.0f;
                    in[2] = 12.5f;
                    in[len - 1] = -kInf;
                }
                if (kind == 2) in[len / 3] = kInf;
                if (kind == 3) in[len / 2] = kNan;
                std::vector<float> out(len, 7.0f);
                kernels::softmax_row(in.data(), out.data(), len, valid);
                f.add(out);
            }
        }
    }
    return f.h;
}

std::uint64_t pin_attention_head() {
    std::mt19937 gen(310);
    Fnv f;
    for (std::size_t dh : {8u, 12u, 16u, 32u, 64u}) {
        const auto q = random_floats(dh, gen, -4.0f, 4.0f);
        const float scale = 1.0f / std::sqrt(static_cast<float>(dh));
        for (std::size_t n = 1; n <= 130; ++n) {
            const auto k = random_floats(n * dh, gen, -2.0f, 2.0f);
            const auto v = random_floats(n * dh, gen);
            std::vector<float> scores(n);
            std::vector<float> ctx(dh, 9.0f);
            kernels::attention_head(q.data(), k.data(), v.data(), scores.data(), ctx.data(), n,
                                    dh, scale);
            f.add(scores);
            f.add(ctx);
        }
    }
    return f.h;
}

// The digests are the avx2 tier's bytes, and every tier gives them.
TEST(SimdParityTest, KernelBytesArePinned) {
    struct Pin {
        const char* kernel;
        std::uint64_t (*run)();
        std::uint64_t want;
    };
    const Pin pins[] = {
        {"layer_norm_row", pin_layer_norm_row, 0x2d7a0bd2b9fdb55full},
        {"add_bias_row", pin_add_bias_row, 0x492896715d50794bull},
        {"bias_gelu_row", pin_bias_gelu_row, 0x42b00d8eeb24630dull},
        {"bias_gelu_backward_row", pin_bias_gelu_backward_row, 0xc9f632d7f2370018ull},
        {"softmax_backward_row", pin_softmax_backward_row, 0xdae28b2c278e5543ull},
        {"layer_norm_backward_row", pin_layer_norm_backward_row, 0xde46f120b6e09434ull},
        {"sqnorm", pin_sqnorm, 0x8a61f2bd9c0c987dull},
        {"adam_update", pin_adam_update, 0x4928f9577eb7a6e9ull},
        {"softmax_row", pin_softmax_row, 0x74d682cfd565255bull},
        {"attention_head", pin_attention_head, 0xcb5bc1d417f81497ull},
    };
    for (SimdTier tier : util::available_simd_tiers()) {
        util::ScopedSimdTier guard(tier);
        for (const Pin& p : pins) {
            const std::uint64_t got = p.run();
            EXPECT_EQ(got, p.want) << std::hex << p.kernel << " on "
                                   << util::simd_tier_name(tier) << ": 0x" << got;
        }
    }
}

// LayerNorm, bias add and bias+GELU run one body on every tier
// (kernels_inl.hpp): the tiers give the same bytes, each within its bound of
// the serial formula (two-pass LayerNorm, a plain add, gelu_scalar).
TEST(SimdParityTest, FusedKernelsAgreeAcrossTiers) {
    std::mt19937 gen(7);
    const std::size_t rows = 13;
    const std::size_t d = 100;  // exercises both the vector body and the tail
    const auto x = random_floats(rows * d, gen);
    // GELU inputs span [-10, 10]: exp saturation on both sides, not just the
    // near-linear middle.
    const auto xg = random_floats(rows * d, gen, -10.0f, 10.0f);
    const auto gain = random_floats(d, gen, 0.5f, 1.5f);
    const auto bias = random_floats(d, gen);

    struct Out {
        std::vector<float> ln, ln_stats, biased, bias_gelu;
    } want;
    want.ln.resize(rows * d);
    want.biased = x;
    want.bias_gelu.resize(rows * d);
    for (std::size_t r = 0; r < rows; ++r) {
        const float* in = x.data() + r * d;
        float mean = 0.0f;
        for (std::size_t j = 0; j < d; ++j) mean += in[j];
        mean /= static_cast<float>(d);
        float var = 0.0f;
        for (std::size_t j = 0; j < d; ++j) var += (in[j] - mean) * (in[j] - mean);
        var /= static_cast<float>(d);
        const float inv = 1.0f / std::sqrt(var + 1e-5f);
        want.ln_stats.push_back(mean);
        want.ln_stats.push_back(inv);
        for (std::size_t j = 0; j < d; ++j) {
            want.ln[r * d + j] = (in[j] - mean) * inv * gain[j] + bias[j];
            want.biased[r * d + j] += bias[j];
            want.bias_gelu[r * d + j] = kernels::gelu_scalar(xg[r * d + j] + bias[j]);
        }
    }

    std::optional<Out> first;
    for (SimdTier tier : util::available_simd_tiers()) {
        util::ScopedSimdTier guard(tier);

        Out got;
        got.ln.resize(rows * d);
        got.ln_stats.resize(rows * 2);
        kernels::layer_norm_rows(x.data(), got.ln.data(), gain.data(), bias.data(), rows, d,
                                 1e-5f, got.ln_stats.data());
        got.biased = x;
        kernels::add_bias_rows(got.biased.data(), bias.data(), rows, d);
        got.bias_gelu = xg;
        kernels::bias_gelu_rows(got.bias_gelu.data(), bias.data(), rows, d);

        expect_near_all(got.ln, want.ln, 1e-5f, "layer_norm_rows");
        expect_near_all(got.ln_stats, want.ln_stats, 1e-4f, "layer_norm stats");
        expect_near_all(got.biased, want.biased, 0.0f, "add_bias_rows");  // same op order
        expect_near_all(got.bias_gelu, want.bias_gelu, 1e-6f, "bias_gelu_rows");
        if (!first) {
            first = std::move(got);
            continue;
        }
        expect_same_bits(got.ln, first->ln, "layer_norm_rows");
        expect_same_bits(got.ln_stats, first->ln_stats, "layer_norm stats");
        expect_same_bits(got.biased, first->biased, "add_bias_rows");
        expect_same_bits(got.bias_gelu, first->bias_gelu, "bias_gelu_rows");
    }
}

// The end-to-end acceptance pin: within any fixed tier, Sampler::generate is
// byte-identical across thread counts.
TEST(SimdParityTest, SamplerGenerateThreadInvariantPerTier) {
    trace::SyntheticWorldConfig wcfg;
    wcfg.population = {30, 0, 0};
    wcfg.seed = 21;
    const auto world = trace::SyntheticWorldGenerator(wcfg).generate();
    const auto tok = core::Tokenizer::fit(world);
    util::Rng init(3);
    core::CptGptConfig cfg;
    cfg.d_model = 24;
    cfg.heads = 2;
    cfg.mlp_hidden = 48;
    cfg.blocks = 1;
    cfg.max_seq_len = 48;
    cfg.head_hidden = 24;
    core::CptGpt model(tok, cfg, init);  // untrained: the contract is structural
    core::SamplerConfig scfg;
    scfg.batch = 6;
    const core::Sampler sampler(model, tok, world.initial_event_distribution(), scfg);

    for (SimdTier tier : util::available_simd_tiers()) {
        util::ScopedSimdTier guard(tier);
        util::set_global_threads(1);
        util::Rng g1(42);
        const auto one = sampler.generate(20, g1);
        util::set_global_threads(4);
        util::Rng g4(42);
        const auto four = sampler.generate(20, g4);
        util::set_global_threads(1);
        ASSERT_GT(one.streams.size(), 0u);
        ASSERT_EQ(one.streams.size(), four.streams.size());
        for (std::size_t i = 0; i < one.streams.size(); ++i) {
            const auto& sa = one.streams[i];
            const auto& sb = four.streams[i];
            ASSERT_EQ(sa.events.size(), sb.events.size())
                << "tier " << util::simd_tier_name(tier) << " stream " << i;
            for (std::size_t j = 0; j < sa.events.size(); ++j) {
                EXPECT_EQ(sa.events[j].type, sb.events[j].type);
                EXPECT_EQ(std::bit_cast<std::uint64_t>(sa.events[j].timestamp),
                          std::bit_cast<std::uint64_t>(sb.events[j].timestamp))
                    << "tier " << util::simd_tier_name(tier) << " stream " << i << " event " << j;
            }
        }
    }
}

TEST(SimdParityTest, SetSimdTierRejectsUnavailable) {
    if (util::simd_tier_available(SimdTier::kAvx2)) GTEST_SKIP() << "all tiers available";
    EXPECT_THROW(util::set_simd_tier(SimdTier::kAvx2), std::logic_error);
}

}  // namespace
}  // namespace cpt::nn
