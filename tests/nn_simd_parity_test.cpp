// Parity and determinism contract of the runtime-dispatched SIMD kernel
// layer (util/cpu.hpp, nn/gemm.hpp, nn/kernels.hpp):
//   * every available tier agrees with the scalar tier within tolerance
//     (GEMM, the m = 1 decode GEMV, and the fused elementwise kernels);
//   * softmax and the decode attention kernel are bit-identical across tiers
//     (one add/mul operation order, kernels.hpp), and the add/mul exp they
//     share is pinned against std::exp;
//   * within a fixed tier, the full Sampler::generate pipeline is
//     byte-identical across thread counts.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
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

    struct Ref {
        std::vector<float> ln, ln_stats, biased, bias_gelu;
    } ref;
    for (SimdTier tier : util::available_simd_tiers()) {
        util::ScopedSimdTier guard(tier);

        std::vector<float> ln(rows * d);
        std::vector<float> ln_stats(rows * 2);
        kernels::layer_norm_rows(x.data(), ln.data(), gain.data(), bias.data(), rows, d, 1e-5f,
                                 ln_stats.data());

        auto biased = x;
        kernels::add_bias_rows(biased.data(), bias.data(), rows, d);

        auto bg = xg;
        kernels::bias_gelu_rows(bg.data(), bias.data(), rows, d);

        if (tier == SimdTier::kScalar) {
            ref = {std::move(ln), std::move(ln_stats), std::move(biased), std::move(bg)};
            continue;
        }
        expect_near_all(ln, ref.ln, 1e-5f, "layer_norm_rows");
        expect_near_all(ln_stats, ref.ln_stats, 1e-4f, "layer_norm stats");
        expect_near_all(biased, ref.biased, 0.0f, "add_bias_rows");  // same op order
        expect_near_all(bg, ref.bias_gelu, 1e-6f, "bias_gelu_rows");
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
