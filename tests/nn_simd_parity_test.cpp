// Parity and determinism contract of the runtime-dispatched SIMD kernel
// layer (util/cpu.hpp, nn/gemm.hpp, nn/kernels.hpp):
//   * every available tier agrees with the scalar tier within tolerance
//     (GEMM, the m = 1 decode GEMV, and the fused elementwise kernels);
//   * softmax is bit-identical across tiers (its exp/sum stage is scalar on
//     every tier by design);
//   * within a fixed tier, kernels and the full Sampler::generate pipeline
//     are byte-identical across thread counts.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
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

class TierGuard {
public:
    explicit TierGuard(SimdTier tier) : prev_(util::set_simd_tier(tier)) {}
    ~TierGuard() { util::set_simd_tier(prev_); }
    TierGuard(const TierGuard&) = delete;
    TierGuard& operator=(const TierGuard&) = delete;

private:
    SimdTier prev_;
};

std::vector<SimdTier> available_tiers() {
    std::vector<SimdTier> tiers{SimdTier::kScalar};
    if (util::simd_tier_available(SimdTier::kSse2)) tiers.push_back(SimdTier::kSse2);
    if (util::simd_tier_available(SimdTier::kAvx2)) tiers.push_back(SimdTier::kAvx2);
    return tiers;
}

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

using GemmFn = void (*)(const float*, const float*, float*, std::size_t, std::size_t, std::size_t,
                        util::ThreadPool*);

// gemm_nt_decode runs on its caller's thread; the pool argument goes unused.
void gemm_nt_decode_pooled(const float* a, const float* b, float* c, std::size_t m,
                           std::size_t k, std::size_t n, util::ThreadPool*) {
    gemm_nt_decode(a, b, c, m, k, n);
}

// Every tier must agree with the scalar tier within tolerance, and with
// itself (bitwise) across thread counts — for all three layouts and the
// decode NT entry, including the m = 1 shapes routed to the GEMV fast path.
TEST(SimdParityTest, GemmAgreesAcrossTiers) {
    const GemmFn fns[] = {gemm_nn, gemm_nt, gemm_tn, gemm_nt_decode_pooled};
    const char* names[] = {"gemm_nn", "gemm_nt", "gemm_tn", "gemm_nt_decode"};
    const std::size_t shapes[][3] = {
        {1, 64, 256}, {1, 128, 128}, {1, 9, 64},  {1, 300, 31},
        {4, 16, 16},  {37, 48, 70},  {128, 64, 256}, {33, 17, 255},
    };
    std::mt19937 gen(11);
    util::ThreadPool pool1(1);
    util::ThreadPool pool4(4);
    for (const auto& s : shapes) {
        const std::size_t m = s[0], k = s[1], n = s[2];
        const auto a = random_floats(m * k, gen);
        const auto b = random_floats(k * n, gen);
        const auto c0 = random_floats(m * n, gen);
        for (std::size_t f = 0; f < std::size(fns); ++f) {
            std::vector<float> scalar_out;
            for (SimdTier tier : available_tiers()) {
                TierGuard guard(tier);
                auto c1 = c0;
                fns[f](a.data(), b.data(), c1.data(), m, k, n, &pool1);
                auto c4 = c0;
                fns[f](a.data(), b.data(), c4.data(), m, k, n, &pool4);
                expect_same_bits(c1, c4, names[f]);
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

TEST(SimdParityTest, SoftmaxIsBitIdenticalAcrossTiers) {
    std::mt19937 gen(5);
    for (std::size_t len : {1u, 3u, 8u, 17u, 64u, 300u}) {
        const auto in = random_floats(len, gen, -6.0f, 6.0f);
        std::vector<float> scalar_out;
        for (SimdTier tier : available_tiers()) {
            TierGuard guard(tier);
            std::vector<float> out(len);
            kernels::softmax_row(in.data(), out.data(), len, len);
            if (tier == SimdTier::kScalar) {
                scalar_out = std::move(out);
            } else {
                expect_same_bits(out, scalar_out, "softmax_row");
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
    util::ThreadPool pool1(1);
    util::ThreadPool pool4(4);

    struct Ref {
        std::vector<float> ln, ln_stats, biased, bias_gelu;
        float dot = 0.0f;
        std::vector<float> axpy;
    } ref;
    for (SimdTier tier : available_tiers()) {
        TierGuard guard(tier);

        std::vector<float> ln(rows * d);
        std::vector<float> ln_stats(rows * 2);
        kernels::layer_norm_rows(x.data(), ln.data(), gain.data(), bias.data(), rows, d, 1e-5f,
                                 ln_stats.data(), &pool1);
        std::vector<float> ln4(rows * d);
        std::vector<float> ln_stats4(rows * 2);
        kernels::layer_norm_rows(x.data(), ln4.data(), gain.data(), bias.data(), rows, d, 1e-5f,
                                 ln_stats4.data(), &pool4);
        expect_same_bits(ln, ln4, "layer_norm_rows threads");
        expect_same_bits(ln_stats, ln_stats4, "layer_norm stats threads");

        auto biased = x;
        kernels::add_bias_rows(biased.data(), bias.data(), rows, d, &pool1);
        auto biased4 = x;
        kernels::add_bias_rows(biased4.data(), bias.data(), rows, d, &pool4);
        expect_same_bits(biased, biased4, "add_bias_rows threads");

        auto bg = xg;
        kernels::bias_gelu_rows(bg.data(), bias.data(), rows, d, &pool1);
        auto bg4 = xg;
        kernels::bias_gelu_rows(bg4.data(), bias.data(), rows, d, &pool4);
        expect_same_bits(bg, bg4, "bias_gelu_rows threads");

        const float dot = kernels::dot(x.data(), x.data() + d, d);
        std::vector<float> ax(x.begin(), x.begin() + static_cast<std::ptrdiff_t>(d));
        kernels::axpy(0.37f, x.data() + d, ax.data(), d);

        if (tier == SimdTier::kScalar) {
            ref = {std::move(ln), std::move(ln_stats), std::move(biased), std::move(bg), dot,
                   std::move(ax)};
            continue;
        }
        expect_near_all(ln, ref.ln, 1e-5f, "layer_norm_rows");
        expect_near_all(ln_stats, ref.ln_stats, 1e-4f, "layer_norm stats");
        expect_near_all(biased, ref.biased, 0.0f, "add_bias_rows");  // same op order
        expect_near_all(bg, ref.bias_gelu, 1e-6f, "bias_gelu_rows");
        EXPECT_NEAR(dot, ref.dot, 1e-4f);
        expect_near_all(ax, ref.axpy, 1e-6f, "axpy");
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

    for (SimdTier tier : available_tiers()) {
        TierGuard guard(tier);
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
