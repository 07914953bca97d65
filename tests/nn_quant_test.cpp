// Int8 weight-quantized decode tier + fp16 KV cache (DESIGN.md §12).
//
// The quantized matmul carries a STRONGER contract than the fp32 kernels:
// its integer dots are exact and its float epilogue is one fixed scalar
// expression, so gemm_q8_nt output must be BYTE-identical across
// scalar/sse2/avx2 (it runs on its caller's thread, so thread counts cannot
// enter). The fp16 converters must be
// bit-identical to IEEE binary16 round-to-nearest-even on every tier
// (hardware F16C and the software fallback agree). On top of the kernel
// contracts, this suite bounds the numeric drift the quantized pipeline may
// introduce: a per-logit error bound for gemv_q8 vs fp32, and a Table-2
// fidelity-drift bound for the int8 sampler vs the fp32 sampler on the same
// seeds. Runs under `ctest -L quant`; scripts/check.sh reruns it per SIMD
// tier (CPT_SIMD=scalar|sse2|avx2).
#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <random>
#include <vector>

#include "core/model.hpp"
#include "core/sampler.hpp"
#include "metrics/fidelity.hpp"
#include "nn/fp16.hpp"
#include "nn/kernels.hpp"
#include "nn/quant.hpp"
#include "nn/serialize.hpp"
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

// ---- Precision knob --------------------------------------------------------

TEST(PrecisionTest, NamesAndParsing) {
    EXPECT_STREQ(precision_name(Precision::kFp32), "fp32");
    EXPECT_STREQ(precision_name(Precision::kInt8W8A32), "int8_w8a32");
    EXPECT_EQ(parse_precision("fp32"), Precision::kFp32);
    EXPECT_EQ(parse_precision("int8"), Precision::kInt8W8A32);
    EXPECT_EQ(parse_precision("int8_w8a32"), Precision::kInt8W8A32);
    EXPECT_THROW(parse_precision("bf16"), std::invalid_argument);
}

// ---- fp16 converter --------------------------------------------------------

// decode(encode(h)) is lossless for every non-NaN half — the decoder is an
// exact widening and the encoder must invert it.
TEST(Fp16Test, RoundTripsEveryNonNanHalf) {
    for (std::uint32_t h = 0; h <= 0xffff; ++h) {
        const auto half = static_cast<std::uint16_t>(h);
        const bool is_nan = (half & 0x7c00u) == 0x7c00u && (half & 0x03ffu) != 0;
        if (is_nan) continue;
        const float widened = fp16_decode_one(half);
        EXPECT_EQ(fp16_encode_one(widened), half) << "half 0x" << std::hex << h;
    }
}

TEST(Fp16Test, EncodeMatchesIeeeRoundToNearestEven) {
    // Exact values.
    EXPECT_EQ(fp16_encode_one(0.0f), 0x0000u);
    EXPECT_EQ(fp16_encode_one(-0.0f), 0x8000u);
    EXPECT_EQ(fp16_encode_one(1.0f), 0x3c00u);
    EXPECT_EQ(fp16_encode_one(-2.0f), 0xc000u);
    EXPECT_EQ(fp16_encode_one(65504.0f), 0x7bffu);  // largest finite half
    // Overflow and ties. 65520 is the midpoint between 65504 and the first
    // unrepresentable step; RNE rounds it up into infinity.
    EXPECT_EQ(fp16_encode_one(65520.0f), 0x7c00u);
    EXPECT_EQ(fp16_encode_one(1e9f), 0x7c00u);
    EXPECT_EQ(fp16_encode_one(-1e9f), 0xfc00u);
    EXPECT_EQ(fp16_encode_one(std::numeric_limits<float>::infinity()), 0x7c00u);
    // Normal-range tie: 1 + 2^-11 is exactly between 0x3c00 and 0x3c01 ->
    // even (0x3c00); 1 + 3*2^-11 is between 0x3c01 and 0x3c02 -> even.
    EXPECT_EQ(fp16_encode_one(1.0f + 0x1.0p-11f), 0x3c00u);
    EXPECT_EQ(fp16_encode_one(1.0f + 0x3.0p-11f), 0x3c02u);
    // Subnormals: 2^-24 is the smallest half subnormal; 2^-25 ties to zero.
    EXPECT_EQ(fp16_encode_one(0x1.0p-24f), 0x0001u);
    EXPECT_EQ(fp16_encode_one(0x1.0p-25f), 0x0000u);
    EXPECT_EQ(fp16_encode_one(0x1.8p-24f), 0x0002u);  // tie -> even
    EXPECT_EQ(fp16_encode_one(-0x1.0p-24f), 0x8001u);
    // NaN stays NaN.
    const std::uint16_t qnan = fp16_encode_one(std::numeric_limits<float>::quiet_NaN());
    EXPECT_EQ(qnan & 0x7c00u, 0x7c00u);
    EXPECT_NE(qnan & 0x03ffu, 0u);
    // Round-trip error of a normal-range value is bounded by half a ulp
    // (2^-11 relative).
    std::mt19937 gen(3);
    for (int i = 0; i < 2000; ++i) {
        const float x = random_floats(1, gen, -1000.0f, 1000.0f)[0];
        const float back = fp16_decode_one(fp16_encode_one(x));
        EXPECT_LE(std::abs(back - x), std::abs(x) * 0x1.0p-11f + 0x1.0p-25f) << x;
    }
}

// The encoder must produce the same bits on every tier (hardware F16C on
// avx2, software everywhere else), and the widening kernels must agree with
// the scalar tier within FMA drift.
TEST(Fp16Test, KernelsAgreeAcrossTiers) {
    std::mt19937 gen(9);
    for (std::size_t n : {1u, 7u, 8u, 64u, 100u, 300u}) {
        const auto src = random_floats(n, gen, -4.0f, 4.0f);
        const auto other = random_floats(n, gen, -2.0f, 2.0f);

        std::vector<std::uint16_t> scalar_bits;
        float scalar_dot = 0.0f;
        std::vector<float> scalar_axpy;
        for (SimdTier tier : available_tiers()) {
            TierGuard guard(tier);
            std::vector<std::uint16_t> bits(n);
            kernels::fp16_encode(src.data(), bits.data(), n);
            const float d = kernels::dot_f16(other.data(), bits.data(), n);
            auto ax = other;
            kernels::axpy_f16(0.37f, bits.data(), ax.data(), n);
            if (tier == SimdTier::kScalar) {
                scalar_bits = std::move(bits);
                scalar_dot = d;
                scalar_axpy = std::move(ax);
                continue;
            }
            ASSERT_EQ(std::memcmp(bits.data(), scalar_bits.data(), n * sizeof(std::uint16_t)), 0)
                << "fp16_encode tier " << util::simd_tier_name(tier) << " n=" << n;
            EXPECT_NEAR(d, scalar_dot, 1e-3f) << "dot_f16 n=" << n;
            for (std::size_t i = 0; i < n; ++i) {
                EXPECT_NEAR(ax[i], scalar_axpy[i], 1e-5f) << "axpy_f16 n=" << n << " i=" << i;
            }
        }
    }
}

// ---- int8 weight quantization ----------------------------------------------

TEST(QuantTest, WeightQuantizationErrorBoundedByHalfScale) {
    std::mt19937 gen(17);
    const std::size_t out = 13, in = 100;
    const auto w = random_floats(out * in, gen, -2.0f, 2.0f);
    std::vector<std::int8_t> wq(out * in);
    std::vector<float> scale(out);
    quantize_weights_rowwise(w.data(), out, in, wq.data(), scale.data());
    std::vector<float> back(out * in);
    dequantize_weights_rowwise(wq.data(), scale.data(), out, in, back.data());
    for (std::size_t r = 0; r < out; ++r) {
        float wmax = 0.0f;
        for (std::size_t j = 0; j < in; ++j) wmax = std::max(wmax, std::abs(w[r * in + j]));
        EXPECT_NEAR(scale[r], wmax / 127.0f, wmax * 1e-6f);
        for (std::size_t j = 0; j < in; ++j) {
            EXPECT_LE(std::abs(back[r * in + j] - w[r * in + j]), scale[r] * 0.5f + 1e-7f);
        }
    }
    std::vector<std::int32_t> rowsum(out);
    rowsums_q8(wq.data(), out, in, rowsum.data());
    for (std::size_t r = 0; r < out; ++r) {
        std::int32_t want = 0;
        for (std::size_t j = 0; j < in; ++j) want += wq[r * in + j];
        EXPECT_EQ(rowsum[r], want);
    }
}

// Per-logit error bound of the quantized matmul against an fp64 reference:
// with activation step sa = amax/63 and weight step sw = wmax/127,
//   |c_q - c_fp| <= k * (amax*sw/2 + (wmax + sw/2)*sa/2)
// (each product loses at most |x|*sw/2 + |w_hat|*sa/2). The 1.05 slack
// absorbs the float epilogue rounding.
TEST(QuantTest, GemvQ8PerLogitErrorBound) {
    std::mt19937 gen(23);
    for (const auto& shape : {std::pair<std::size_t, std::size_t>{64, 48},
                              std::pair<std::size_t, std::size_t>{128, 130},
                              std::pair<std::size_t, std::size_t>{9, 600}}) {
        const std::size_t k = shape.first, n = shape.second;
        const std::size_t rows = 3;
        const auto x = random_floats(rows * k, gen, -3.0f, 3.0f);
        const auto w = random_floats(n * k, gen, -1.5f, 1.5f);

        std::vector<std::int8_t> wq(n * k);
        std::vector<float> wscale(n);
        std::vector<std::int32_t> rowsum(n);
        quantize_weights_rowwise(w.data(), n, k, wq.data(), wscale.data());
        rowsums_q8(wq.data(), n, k, rowsum.data());
        QuantScratch qs;
        quantize_activations(x.data(), rows, k, qs);
        std::vector<float> c(rows * n, 0.0f);
        gemm_q8_nt(qs.qa.data(), qs.ascale.data(), wq.data(), wscale.data(), rowsum.data(),
                   c.data(), rows, k, n);

        for (std::size_t r = 0; r < rows; ++r) {
            float amax = 0.0f;
            for (std::size_t j = 0; j < k; ++j) amax = std::max(amax, std::abs(x[r * k + j]));
            const double sa = amax / 63.0;
            for (std::size_t col = 0; col < n; ++col) {
                double ref = 0.0;
                float wmax = 0.0f;
                for (std::size_t j = 0; j < k; ++j) {
                    ref += static_cast<double>(x[r * k + j]) * w[col * k + j];
                    wmax = std::max(wmax, std::abs(w[col * k + j]));
                }
                const double sw = wmax / 127.0;
                const double bound =
                    static_cast<double>(k) * (amax * sw * 0.5 + (wmax + sw * 0.5) * sa * 0.5);
                EXPECT_LE(std::abs(c[r * n + col] - ref), 1.05 * bound + 1e-6)
                    << "k=" << k << " n=" << n << " row=" << r << " col=" << col;
            }
        }
    }
}

// The determinism contract: byte-identical output across every available
// tier (integer dots are exact; the epilogue is one fixed scalar expression
// compiled without FMA). The kernel runs on its caller's thread, so the
// thread count cannot enter.
TEST(QuantTest, GemmQ8ByteIdenticalAcrossTiersAndThreads) {
    std::mt19937 gen(31);
    const std::size_t shapes[][3] = {
        {1, 16, 16}, {1, 128, 128}, {3, 100, 260}, {5, 513, 37}, {32, 128, 1024},
    };
    for (const auto& s : shapes) {
        const std::size_t m = s[0], k = s[1], n = s[2];
        const auto x = random_floats(m * k, gen, -2.0f, 2.0f);
        const auto w = random_floats(n * k, gen);
        const auto c0 = random_floats(m * n, gen);
        std::vector<std::int8_t> wq(n * k);
        std::vector<float> wscale(n);
        std::vector<std::int32_t> rowsum(n);
        quantize_weights_rowwise(w.data(), n, k, wq.data(), wscale.data());
        rowsums_q8(wq.data(), n, k, rowsum.data());

        std::vector<float> reference;
        std::vector<std::uint8_t> reference_qa;
        for (SimdTier tier : available_tiers()) {
            TierGuard guard(tier);
            QuantScratch qs;
            quantize_activations(x.data(), m, k, qs);
            auto c = c0;
            gemm_q8_nt(qs.qa.data(), qs.ascale.data(), wq.data(), wscale.data(), rowsum.data(),
                       c.data(), m, k, n);
            if (reference.empty()) {
                reference = std::move(c);
                reference_qa = qs.qa;
                continue;
            }
            ASSERT_EQ(std::memcmp(qs.qa.data(), reference_qa.data(), qs.qa.size()), 0)
                << "activation codes, tier " << util::simd_tier_name(tier);
            ASSERT_EQ(std::memcmp(c.data(), reference.data(), c.size() * sizeof(float)), 0)
                << "gemm_q8_nt tier " << util::simd_tier_name(tier) << " m=" << m << " k=" << k
                << " n=" << n;
        }
    }
}

// ---- decoder numeric modes -------------------------------------------------

TransformerConfig tiny_backbone() {
    TransformerConfig cfg;
    cfg.d_token = 7;
    cfg.d_model = 16;
    cfg.heads = 2;
    cfg.mlp_hidden = 32;
    cfg.blocks = 2;
    cfg.max_seq_len = 16;
    return cfg;
}

// fp16 KV storage alone perturbs the attention inputs by at most half a ulp
// (2^-11 relative), so the decoder output stays close to the fp32 decoder.
TEST(QuantDecoderTest, KvFp16TracksFp32Decoder) {
    util::Rng rng(11);
    const Transformer model(tiny_backbone(), rng);
    const std::size_t b = 3;
    TransformerDecoder fp32(model, b);
    DecodeOptions opts;
    opts.kv_fp16 = true;
    TransformerDecoder half(model, b, opts);
    EXPECT_FALSE(half.quantized());
    EXPECT_TRUE(half.kv_fp16());
    EXPECT_EQ(half.kv_bytes() * 2, fp32.kv_bytes());

    for (std::size_t t = 0; t < 12; ++t) {
        const Tensor x = Tensor::randn(rng, {b, 7}, 0.6f);
        const Tensor& hf = fp32.step(x);
        const Tensor& hh = half.step(x);
        for (std::size_t i = 0; i < hf.numel(); ++i) {
            EXPECT_NEAR(hh[i], hf[i], 2e-2f) << "t=" << t << " i=" << i;
        }
    }
}

TEST(QuantDecoderTest, Int8DecoderTracksFp32Decoder) {
    util::Rng rng(13);
    const Transformer model(tiny_backbone(), rng);
    const TransformerQuant quant = TransformerQuant::from(model);
    const std::size_t b = 2;
    TransformerDecoder fp32(model, b);
    DecodeOptions opts;
    opts.quant = &quant;
    opts.kv_fp16 = true;
    TransformerDecoder q8(model, b, opts);
    EXPECT_TRUE(q8.quantized());

    double worst = 0.0;
    for (std::size_t t = 0; t < 12; ++t) {
        const Tensor x = Tensor::randn(rng, {b, 7}, 0.6f);
        const Tensor& hf = fp32.step(x);
        const Tensor& hq = q8.step(x);
        for (std::size_t i = 0; i < hf.numel(); ++i) {
            worst = std::max(worst, static_cast<double>(std::abs(hq[i] - hf[i])));
        }
    }
    // 7-bit activations + 8-bit weights through 2 blocks of a LayerNorm'd
    // residual stream: drift stays well under the logit scale.
    EXPECT_LT(worst, 0.3);
    EXPECT_GT(worst, 0.0);  // the modes genuinely differ
}

// Acceptance pin: the quantized decode is byte-identical across CPT_THREADS
// within every tier.
TEST(QuantDecoderTest, Int8DecodeThreadInvariantPerTier) {
    util::Rng rng(17);
    const Transformer model(tiny_backbone(), rng);
    const TransformerQuant quant = TransformerQuant::from(model);
    DecodeOptions opts;
    opts.quant = &quant;
    opts.kv_fp16 = true;
    const std::size_t b = 4;
    const std::size_t steps = 10;
    const Tensor seq = Tensor::randn(rng, {b, steps, 7}, 0.6f);

    for (SimdTier tier : available_tiers()) {
        TierGuard guard(tier);
        std::vector<float> one;
        for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
            util::set_global_threads(threads);
            TransformerDecoder dec(model, b, opts);
            std::vector<float> flat;
            for (std::size_t t = 0; t < steps; ++t) {
                Tensor x({b, 7});
                for (std::size_t r = 0; r < b; ++r) {
                    for (std::size_t j = 0; j < 7; ++j) x[r * 7 + j] = seq[(r * steps + t) * 7 + j];
                }
                const Tensor& h = dec.step(x);
                flat.insert(flat.end(), h.data().begin(), h.data().end());
            }
            if (threads == 1) {
                one = std::move(flat);
            } else {
                ASSERT_EQ(std::memcmp(flat.data(), one.data(), one.size() * sizeof(float)), 0)
                    << "tier " << util::simd_tier_name(tier);
            }
        }
        util::set_global_threads(1);
    }
}

// ---- model + sampler plumbing ----------------------------------------------

core::CptGptConfig small_model_config() {
    core::CptGptConfig cfg;
    cfg.d_model = 24;
    cfg.heads = 2;
    cfg.mlp_hidden = 48;
    cfg.blocks = 1;
    cfg.max_seq_len = 48;
    cfg.head_hidden = 24;
    return cfg;
}

TEST(QuantModelTest, PrecisionKnobRequiresQuantizedWeights) {
    const core::Tokenizer tok(cellular::Generation::kLte4G, 0.0, 8.0);
    util::Rng rng(5);
    core::CptGpt model(tok, small_model_config(), rng);
    EXPECT_FALSE(model.has_quantized_weights());
    EXPECT_THROW(model.make_decoder(2, Precision::kInt8W8A32), std::exception);
    model.quantize_weights();
    ASSERT_TRUE(model.has_quantized_weights());
    auto dec = model.make_decoder(2, Precision::kInt8W8A32);
    EXPECT_TRUE(dec.quantized());
    EXPECT_TRUE(dec.kv_fp16());
    // The quantized mirror is ~4x smaller than the fp32 matrices it shadows.
    std::size_t fp32_matrix_bytes = 0;
    for (const auto& np : model.named_parameters()) {
        const auto& n = np.name;
        if (n.size() > 7 && n.compare(n.size() - 7, 7, ".weight") == 0) {
            fp32_matrix_bytes += np.param->value.numel() * sizeof(float);
        }
    }
    EXPECT_LT(model.quantized_weights().weight_bytes(), fp32_matrix_bytes / 2);
}

// The int8 sampler must stay thread-invariant within each tier (same
// contract as fp32 generate; acceptance criterion of the quantized path).
TEST(QuantModelTest, Int8SamplerThreadInvariantPerTier) {
    trace::SyntheticWorldConfig wcfg;
    wcfg.population = {20, 0, 0};
    wcfg.seed = 33;
    const auto world = trace::SyntheticWorldGenerator(wcfg).generate();
    const auto tok = core::Tokenizer::fit(world);
    util::Rng init(3);
    core::CptGpt model(tok, small_model_config(), init);
    model.quantize_weights();
    core::SamplerConfig scfg;
    scfg.batch = 6;
    scfg.precision = Precision::kInt8W8A32;
    const core::Sampler sampler(model, tok, world.initial_event_distribution(), scfg);

    for (SimdTier tier : available_tiers()) {
        TierGuard guard(tier);
        util::set_global_threads(1);
        util::Rng g1(42);
        const auto one = sampler.generate(16, g1);
        util::set_global_threads(4);
        util::Rng g4(42);
        const auto four = sampler.generate(16, g4);
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
                          std::bit_cast<std::uint64_t>(sb.events[j].timestamp));
            }
        }
    }
}

// Fidelity-drift bound (acceptance criterion): generating the same seeds in
// int8 vs fp32 must leave the Table-2 metrics nearly unchanged — the
// quantized sampler's traffic is distributionally the fp32 sampler's traffic.
TEST(QuantModelTest, FidelityDriftBounded) {
    trace::SyntheticWorldConfig wcfg;
    wcfg.population = {30, 0, 0};
    wcfg.seed = 7;
    const auto world = trace::SyntheticWorldGenerator(wcfg).generate();
    const auto tok = core::Tokenizer::fit(world);
    util::Rng init(9);
    core::CptGpt model(tok, small_model_config(), init);
    model.quantize_weights();

    core::SamplerConfig fp_cfg;
    fp_cfg.batch = 32;
    const core::Sampler fp_sampler(model, tok, world.initial_event_distribution(), fp_cfg);
    core::SamplerConfig q_cfg = fp_cfg;
    q_cfg.precision = Precision::kInt8W8A32;
    const core::Sampler q_sampler(model, tok, world.initial_event_distribution(), q_cfg);

    const std::size_t n = 220;
    util::Rng ga(1234);
    const auto fp_ds = fp_sampler.generate(n, ga);
    util::Rng gb(1234);
    const auto q_ds = q_sampler.generate(n, gb);
    ASSERT_GT(fp_ds.streams.size(), n / 2);
    ASSERT_GT(q_ds.streams.size(), n / 2);

    const auto rep = metrics::evaluate_fidelity(q_ds, fp_ds);
    EXPECT_LE(rep.maxy_sojourn_connected, 0.15);
    EXPECT_LE(rep.maxy_sojourn_idle, 0.15);
    EXPECT_LE(rep.maxy_flow_length_all, 0.15);
    EXPECT_LE(rep.max_breakdown_diff(), 0.05);
    const auto fp_viol = metrics::semantic_violations(fp_ds);
    const auto q_viol = metrics::semantic_violations(q_ds);
    EXPECT_LE(std::abs(fp_viol.event_fraction() - q_viol.event_fraction()), 0.05);
    EXPECT_LE(std::abs(fp_viol.stream_fraction() - q_viol.stream_fraction()), 0.10);
}

// ---- quantized checkpoints (serialize v2) ----------------------------------

class QuantSerializeTest : public ::testing::Test {
protected:
    std::string temp_path(const char* name) {
        const ::testing::TestInfo* info = ::testing::UnitTest::GetInstance()->current_test_info();
        return ::testing::TempDir() + info->test_case_name() + "_" + info->name() + "_" + name;
    }
};

TEST_F(QuantSerializeTest, QuantizedPackageRoundTripsExactPayload) {
    const core::Tokenizer tok(cellular::Generation::kLte4G, -1.0, 7.0);
    util::Rng rng(21);
    core::CptGpt model(tok, small_model_config(), rng);
    model.quantize_weights();
    const std::vector<double> dist(model.num_event_types(),
                                   1.0 / static_cast<double>(model.num_event_types()));
    const std::string path = temp_path("hub.ckpt");
    model.save_package(path, tok, dist, Precision::kInt8W8A32);

    auto pkg = core::CptGpt::load_package(path, cellular::Generation::kLte4G,
                                          small_model_config());
    EXPECT_TRUE(pkg.quantized);
    ASSERT_TRUE(pkg.model->has_quantized_weights());
    EXPECT_NEAR(pkg.tokenizer.min_log_interarrival(), -1.0, 1e-6);
    EXPECT_NEAR(pkg.tokenizer.max_log_interarrival(), 7.0, 1e-6);

    // The loaded quantized payload is EXACTLY the original model's (install
    // path, not re-quantization).
    const auto& a = model.quantized_weights();
    const auto& b = pkg.model->quantized_weights();
    ASSERT_EQ(a.backbone.blocks.size(), b.backbone.blocks.size());
    EXPECT_EQ(a.backbone.input_proj.wq, b.backbone.input_proj.wq);
    EXPECT_EQ(a.backbone.input_proj.scale, b.backbone.input_proj.scale);
    for (std::size_t i = 0; i < a.backbone.blocks.size(); ++i) {
        EXPECT_EQ(a.backbone.blocks[i].wq.wq, b.backbone.blocks[i].wq.wq);
        EXPECT_EQ(a.backbone.blocks[i].wo.scale, b.backbone.blocks[i].wo.scale);
        EXPECT_EQ(a.backbone.blocks[i].mlp.fc1.wq, b.backbone.blocks[i].mlp.fc1.wq);
        EXPECT_EQ(a.backbone.blocks[i].mlp.fc2.rowsum, b.backbone.blocks[i].mlp.fc2.rowsum);
    }
    EXPECT_EQ(a.event_head.fc1.wq, b.event_head.fc1.wq);
    EXPECT_EQ(a.stop_head.fc2.scale, b.stop_head.fc2.scale);

    // And int8 decoding through the loaded package is byte-identical to the
    // original model's.
    auto dec_a = model.make_decoder(2, Precision::kInt8W8A32);
    auto dec_b = pkg.model->make_decoder(2, Precision::kInt8W8A32);
    auto scr_a = model.make_decode_scratch(2, Precision::kInt8W8A32);
    auto scr_b = pkg.model->make_decode_scratch(2, Precision::kInt8W8A32);
    util::Rng step_rng(4);
    for (std::size_t t = 0; t < 6; ++t) {
        const Tensor x = Tensor::randn(step_rng, {2, tok.d_token()}, 0.5f);
        const auto& oa = model.decode_step(dec_a, x, scr_a);
        const auto& ob = pkg.model->decode_step(dec_b, x, scr_b);
        ASSERT_EQ(std::memcmp(oa.event_logits.data().data(), ob.event_logits.data().data(),
                              oa.event_logits.numel() * sizeof(float)),
                  0)
            << "t=" << t;
        ASSERT_EQ(std::memcmp(oa.stop_logits.data().data(), ob.stop_logits.data().data(),
                              oa.stop_logits.numel() * sizeof(float)),
                  0);
    }
}

TEST_F(QuantSerializeTest, Fp32OnlyLoadRejectsQuantizedCheckpoint) {
    util::Rng rng(2);
    auto w = make_param(Tensor::randn(rng, {4, 6}, 1.0f));
    const std::vector<NamedParam> params{{"layer.weight", w}};
    const std::string path = temp_path("q8.ckpt");
    save_parameters(path, params, {"layer.weight"});

    auto w2 = make_param(Tensor::zeros({4, 6}));
    const std::vector<NamedParam> into{{"layer.weight", w2}};
    try {
        load_parameters(path, into);  // fp32-only loader
        FAIL() << "expected a dtype-mismatch error";
    } catch (const std::runtime_error& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("layer.weight"), std::string::npos) << msg;
        EXPECT_NE(msg.find("q8"), std::string::npos) << msg;
        EXPECT_NE(msg.find(path), std::string::npos) << msg;
    }

    // The quantization-aware overload accepts it and hands back the payload.
    QuantSections sections;
    load_parameters(path, into, &sections);
    ASSERT_EQ(sections.size(), 1u);
    const auto& sec = sections.at("layer.weight");
    EXPECT_EQ(sec.shape, (Shape{4, 6}));
    EXPECT_EQ(sec.scale.size(), 4u);
    EXPECT_EQ(sec.payload.size(), 24u);
    // Dequantized values landed in the destination parameter.
    float max_abs = 0.0f;
    for (std::size_t i = 0; i < w2->value.numel(); ++i) {
        max_abs = std::max(max_abs, std::abs(w2->value[i]));
        EXPECT_NEAR(w2->value[i], w->value[i], sec.scale[i / 6] * 0.5f + 1e-7f);
    }
    EXPECT_GT(max_abs, 0.0f);
}

TEST_F(QuantSerializeTest, RejectsUnknownDtypeAndTruncatedSections) {
    util::Rng rng(3);
    auto w = make_param(Tensor::randn(rng, {2, 3}, 1.0f));
    const std::vector<NamedParam> params{{"w", w}};
    const std::string path = temp_path("bad.ckpt");
    save_parameters(path, params, {"w"});

    // Patch the dtype byte (offset: magic 4 + version 4 + count 4 +
    // name_len 4 + name 1) to an undefined code.
    {
        std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
        f.seekp(17);
        const char bad = 9;
        f.write(&bad, 1);
    }
    auto w2 = make_param(Tensor::zeros({2, 3}));
    const std::vector<NamedParam> into{{"w", w2}};
    QuantSections sections;
    try {
        load_parameters(path, into, &sections);
        FAIL() << "expected unknown-dtype error";
    } catch (const std::runtime_error& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("unknown dtype 9"), std::string::npos) << msg;
        EXPECT_NE(msg.find("'w'"), std::string::npos) << msg;
        EXPECT_NE(msg.find(path), std::string::npos) << msg;
    }

    // Truncate a valid quantized checkpoint mid-payload.
    const std::string tpath = temp_path("trunc.ckpt");
    save_parameters(tpath, params, {"w"});
    {
        std::ifstream in(tpath, std::ios::binary);
        std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                                std::istreambuf_iterator<char>());
        bytes.resize(bytes.size() - 3);
        std::ofstream out(tpath, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    try {
        load_parameters(tpath, into, &sections);
        FAIL() << "expected truncation error";
    } catch (const std::runtime_error& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("truncated q8 section 'w'"), std::string::npos) << msg;
        EXPECT_NE(msg.find(tpath), std::string::npos) << msg;
    }
}

TEST_F(QuantSerializeTest, SaveRejectsBadQuantizeList) {
    util::Rng rng(4);
    auto w = make_param(Tensor::randn(rng, {2, 3}, 1.0f));
    auto b = make_param(Tensor::zeros({2}));
    const std::vector<NamedParam> params{{"w", w}, {"b", b}};
    const std::string path = temp_path("never.ckpt");
    EXPECT_THROW(save_parameters(path, params, {"nope"}), std::invalid_argument);
    EXPECT_THROW(save_parameters(path, params, {"b"}), std::invalid_argument);  // rank 1
}

// Pure-fp32 saves still write the version-1 format older tools read.
TEST_F(QuantSerializeTest, Fp32SaveStaysVersion1) {
    util::Rng rng(5);
    auto w = make_param(Tensor::randn(rng, {2, 2}, 1.0f));
    const std::vector<NamedParam> params{{"w", w}};
    const std::string path = temp_path("v1.ckpt");
    save_parameters(path, params);
    std::ifstream in(path, std::ios::binary);
    char magic[4];
    in.read(magic, 4);
    std::uint32_t version = 0;
    in.read(reinterpret_cast<char*>(&version), 4);
    EXPECT_EQ(version, 1u);
}

}  // namespace
}  // namespace cpt::nn
