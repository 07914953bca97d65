// Microbenchmarks for the nn substrate: a GEMM GFLOP/s suite for the blocked
// kernels and a ns-per-call suite for the elementwise, softmax, attention and optimizer kernels (kernels.hpp) at
// decode and training-shard shapes, both single-threaded per SIMD tier
// (emitted as tables and as machine-readable BENCH_micro_nn.json), followed by
// the google-benchmark micro suite for the composite kernels.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <random>
#include <string>
#include <vector>

#include "core/model.hpp"
#include "core/tokenizer.hpp"
#include "nn/gemm.hpp"
#include "nn/kernels.hpp"
#include "nn/modules.hpp"
#include "util/cpu.hpp"

namespace {

using namespace cpt;

// ---- GEMM GFLOP/s suite ------------------------------------------------------

struct GemmShape {
    std::size_t m, k, n;
    const char* note;
};

// d_model-scale and MLP-scale shapes from the default (64/256) and flagship
// (128/1024) model configs, plus the M = 1 decode case, the narrow head
// projections of a batch-32 decode step and the products of one 256-token
// training shard (4 windows of 64) of the default model.
constexpr GemmShape kShapes[] = {
    {256, 64, 192, "train shard qkv (d_model=64)"},
    {256, 64, 64, "train shard out-proj"},
    {256, 64, 256, "train shard fc1"},
    {256, 256, 64, "train shard fc2"},
    {256, 64, 6, "train shard event head"},
    {1, 64, 256, "decode fc1 (d_model=64)"},
    {1, 256, 64, "decode fc2 (d_model=64)"},
    {1, 128, 1024, "decode fc1 (flagship mlp=1024)"},
    {32, 64, 2, "decode two-logit head (batch 32)"},
    {32, 64, 6, "decode event head (batch 32)"},
    {128, 64, 256, "fc1 fwd (seq=128, d_model=64)"},
    {128, 256, 64, "fc2 fwd (seq=128, d_model=64)"},
    {512, 64, 64, "qkv proj (batched seq)"},
    {512, 128, 128, "proj fwd (flagship d_model=128)"},
    {512, 128, 1024, "fc1 fwd (flagship mlp=1024)"},
};

double time_gflops(const std::function<void(float*)>& run, std::size_t m, std::size_t k,
                   std::size_t n, std::vector<float>& c) {
    const double flops = 2.0 * static_cast<double>(m) * static_cast<double>(k) *
                         static_cast<double>(n);
    using clock = std::chrono::steady_clock;
    // Calibrate the iteration count to >= 20 ms of work, then take the best
    // of seven timed blocks (best-of filters scheduler noise on shared boxes).
    std::size_t iters = 1;
    for (;;) {
        const auto t0 = clock::now();
        for (std::size_t i = 0; i < iters; ++i) run(c.data());
        const double sec = std::chrono::duration<double>(clock::now() - t0).count();
        if (sec > 0.02 || iters > (1u << 24)) break;
        iters *= 4;
    }
    double best = 0.0;
    for (int rep = 0; rep < 7; ++rep) {
        const auto t0 = clock::now();
        for (std::size_t i = 0; i < iters; ++i) run(c.data());
        const double sec = std::chrono::duration<double>(clock::now() - t0).count();
        best = std::max(best, flops * static_cast<double>(iters) / sec / 1e9);
    }
    benchmark::DoNotOptimize(c.data());
    return best;
}

struct GemmRow {
    const char* op;
    GemmShape shape;
    // Single-thread GFLOP/s per SIMD tier, indexed by SimdTier; 0 when the
    // tier is unavailable on this host/build.
    double gflops_tier_t1[static_cast<int>(util::SimdTier::kAvx2) + 1] = {};
};

std::vector<GemmRow> run_gemm_suite() {
    using GemmFn = void (*)(const float*, const float*, float*, std::size_t, std::size_t,
                            std::size_t);
    struct Op {
        const char* name;
        GemmFn blocked;  // null: gemm_nt_decode over a panel packed before timing
    };
    const Op ops[] = {
        {"nn", nn::gemm_nn},
        {"nt", nn::gemm_nt},
        {"nt_decode", nullptr},
        {"tn", nn::gemm_tn},
    };
    const auto tiers = util::available_simd_tiers();
    const util::SimdTier best = tiers.back();
    std::printf("gemm_nt_decode on %s: %zu lanes\n", util::simd_tier_name(best),
                util::decode_lanes(best));

    std::mt19937 gen(42);
    std::uniform_real_distribution<float> dist(-1.0f, 1.0f);

    std::vector<GemmRow> rows;
    for (const auto& op : ops) {
        for (const auto& s : kShapes) {
            std::vector<float> a(s.m * s.k), b(s.k * s.n), c(s.m * s.n, 0.0f);
            for (float& x : a) x = dist(gen);
            for (float& x : b) x = dist(gen);

            GemmRow row{op.name, s};
            // A decoder packs its panels once, when it is built, so the
            // decode rows time the product over a panel packed here.
            const nn::DecodePanel panel(b.data(), s.n, s.k);
            for (util::SimdTier tier : tiers) {
                const util::ScopedSimdTier guard(tier);
                row.gflops_tier_t1[static_cast<int>(tier)] = time_gflops(
                    [&](float* pc) {
                        if (op.blocked != nullptr) {
                            op.blocked(a.data(), b.data(), pc, s.m, s.k, s.n);
                        } else {
                            nn::gemm_nt_decode(a.data(), panel, pc, s.m);
                        }
                    },
                    s.m, s.k, s.n, c);
            }
            rows.push_back(row);

            std::printf("gemm_%s %4zux%4zux%4zu  scalar %7.2f  avx2 %7.2f GFLOP/s  %s\n",
                        op.name, s.m, s.k, s.n, row.gflops_tier_t1[0], row.gflops_tier_t1[1],
                        s.note);
            std::fflush(stdout);
        }
    }
    return rows;
}

// ---- Kernel ns-per-call suite ------------------------------------------------

// Best time of one call, in ns: the iteration count calibrated to >= 20 ms of
// work, then the best of nine timed blocks.
double time_ns(const std::function<void()>& run) {
    using clock = std::chrono::steady_clock;
    std::size_t iters = 1;
    for (;;) {
        const auto t0 = clock::now();
        for (std::size_t i = 0; i < iters; ++i) run();
        const double sec = std::chrono::duration<double>(clock::now() - t0).count();
        if (sec > 0.02 || iters > (1u << 24)) break;
        iters *= 4;
    }
    double best = 1e300;
    for (int rep = 0; rep < 9; ++rep) {
        const auto t0 = clock::now();
        for (std::size_t i = 0; i < iters; ++i) run();
        const double sec = std::chrono::duration<double>(clock::now() - t0).count();
        best = std::min(best, sec * 1e9 / static_cast<double>(iters));
    }
    return best;
}

struct KernelRow {
    std::string kernel;
    std::string shape;
    // ns per call per SIMD tier, indexed by SimdTier; 0 when unavailable.
    double ns_tier[static_cast<int>(util::SimdTier::kAvx2) + 1] = {};
};

// The default model's parameter count (CptGptConfig{} over the LTE
// tokenizer): the length adam_update and sqnorm sweep each training step.
std::size_t default_model_params() {
    util::Rng rng(6);
    const core::Tokenizer tok(cellular::Generation::kLte4G, 0.0, 8.0);
    return core::CptGpt(tok, core::CptGptConfig{}, rng).num_parameters();
}

std::vector<KernelRow> run_kernel_suite() {
    namespace k = nn::kernels;
    std::mt19937 gen(43);
    std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
    const auto rnd = [&](std::size_t n, float scale = 1.0f) {
        std::vector<float> v(n);
        for (float& x : v) x = scale * dist(gen);
        return v;
    };
    std::vector<KernelRow> rows;
    const auto tiers = util::available_simd_tiers();
    const auto add = [&](std::string kernel, std::string shape, const std::function<void()>& run) {
        KernelRow row{std::move(kernel), std::move(shape)};
        for (util::SimdTier tier : tiers) {
            const util::ScopedSimdTier guard(tier);
            row.ns_tier[static_cast<int>(tier)] = time_ns(run);
        }
        std::printf("%-26s %-22s scalar %10.1f  avx2 %10.1f ns\n", row.kernel.c_str(),
                    row.shape.c_str(), row.ns_tier[0], row.ns_tier[1]);
        std::fflush(stdout);
        rows.push_back(std::move(row));
    };
    const auto shape = [](std::size_t r, std::size_t d) {
        return std::to_string(r) + "x" + std::to_string(d);
    };

    // Decode shapes: a batch of 8 rows of the default model (d_model 64, MLP
    // 256, head width 16) over n cached keys.
    {
        const auto in = rnd(8 * 64), gain = rnd(64), bias = rnd(64);
        std::vector<float> out(8 * 64);
        add("layer_norm_row", "decode " + shape(8, 64), [&] {
            k::layer_norm_rows(in.data(), out.data(), gain.data(), bias.data(), 8, 64, 1e-5f,
                               nullptr);
        });
    }
    {
        auto y = rnd(8 * 256, 3.0f);
        const auto bias = rnd(256);
        add("bias_gelu_row", "decode " + shape(8, 256),
            [&] { k::bias_gelu_rows(y.data(), bias.data(), 8, 256); });
    }
    for (std::size_t n : {8u, 17u, 40u, 64u, 128u}) {
        const auto in = rnd(n, 4.0f);
        std::vector<float> out(n);
        add("softmax_row", "decode n=" + std::to_string(n),
            [&] { k::softmax_row(in.data(), out.data(), n, n); });
    }
    for (std::size_t n : {8u, 17u, 40u, 64u, 128u}) {
        constexpr std::size_t dh = 16;
        const auto q = rnd(dh, 2.0f), keys = rnd(n * dh), vals = rnd(n * dh);
        std::vector<float> scores(n), ctx(dh);
        add("attention_head", "decode dh=16 n=" + std::to_string(n), [&] {
            k::attention_head(q.data(), keys.data(), vals.data(), scores.data(), ctx.data(), n,
                              dh, 0.25f);
        });
    }

    // One training shard of the default model: 4 windows of 64 tokens, so
    // 256 rows, 4 heads of 64x64 causal scores per window.
    for (std::size_t d : {64u, 256u}) {
        constexpr std::size_t r = 256;
        const auto x = rnd(r * d, 2.0f), gain = rnd(d), bias = rnd(d), g = rnd(r * d);
        std::vector<float> out(r * d), stats(r * 2), dx(r * d), scratch(r * d);
        add("layer_norm_rows", "train " + shape(r, d), [&] {
            k::layer_norm_rows(x.data(), out.data(), gain.data(), bias.data(), r, d, 1e-5f,
                               stats.data());
        });
        add("layer_norm_backward_rows", "train dx " + shape(r, d), [&] {
            k::layer_norm_backward_rows(x.data(), gain.data(), g.data(), stats.data(), dx.data(),
                                        nullptr, nullptr, r, d);
        });
        auto y = x;
        add("bias_gelu_rows", "train " + shape(r, d),
            [&] { k::bias_gelu_rows(y.data(), bias.data(), r, d); });
        add("bias_gelu_backward_rows", "train " + shape(r, d), [&] {
            k::bias_gelu_backward_rows(x.data(), bias.data(), g.data(), dx.data(),
                                       scratch.data(), r, d);
        });
    }
    {
        constexpr std::size_t mats = 16, t = 64;
        auto y = rnd(mats * t * t, 3.0f);
        for (std::size_t r = 0; r < mats * t; ++r) {
            k::softmax_row(y.data() + r * t, y.data() + r * t, t, r % t + 1);
        }
        const auto g = rnd(mats * t * t);
        std::vector<float> dx(mats * t * t);
        add("softmax_backward_causal", "train " + std::to_string(mats) + "x" + shape(t, t),
            [&] { k::softmax_backward_causal(y.data(), g.data(), dx.data(), mats, t); });
    }
    {
        const std::size_t n = default_model_params();
        auto w = rnd(n), m = rnd(n, 0.1f), v = rnd(n, 0.1f);
        for (float& x : v) x = std::abs(x);
        const auto g = rnd(n);
        add("adam_update", "train n=" + std::to_string(n), [&] {
            k::adam_update(w.data(), g.data(), m.data(), v.data(), n, 1e-3f, 0.9f, 0.999f, 1e-8f,
                           0.01f, 0.271f, 0.003f, 0.42f);
        });
        double sink = 0.0;
        add("sqnorm", "train n=" + std::to_string(n),
            [&] { sink = k::sqnorm(g.data(), n, sink * 1e-300); });
        benchmark::DoNotOptimize(sink);
    }
    return rows;
}

void write_json(const std::vector<GemmRow>& rows, const std::vector<KernelRow>& kernel_rows,
                const char* path) {
    std::FILE* f = std::fopen(path, "w");
    if (!f) {
        std::fprintf(stderr, "bench_micro_nn: cannot write %s\n", path);
        return;
    }
    const auto tiers = util::available_simd_tiers();
    std::fprintf(f, "{\n  \"bench\": \"micro_nn_gemm\",\n");
    std::fprintf(f, "  \"simd_tiers\": [");
    for (std::size_t i = 0; i < tiers.size(); ++i) {
        std::fprintf(f, "%s\"%s\"", i ? ", " : "", util::simd_tier_name(tiers[i]));
    }
    // The nt_decode rows' vector width on the best tier (16 on AVX-512F
    // hosts, whose avx2 tier runs the 16-lane decode tiles).
    std::fprintf(f, "],\n  \"best_tier\": \"%s\",\n  \"decode_lanes\": %zu,\n  \"rows\": [\n",
                 util::simd_tier_name(tiers.back()), util::decode_lanes(tiers.back()));
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const auto& r = rows[i];
        std::fprintf(
            f,
            "    {\"op\": \"%s\", \"m\": %zu, \"k\": %zu, \"n\": %zu, \"note\": \"%s\", "
            "\"gflops_scalar_t1\": %.3f, \"gflops_avx2_t1\": %.3f}%s\n",
            r.op, r.shape.m, r.shape.k, r.shape.n, r.shape.note, r.gflops_tier_t1[0],
            r.gflops_tier_t1[1], i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"kernels\": [\n");
    for (std::size_t i = 0; i < kernel_rows.size(); ++i) {
        const auto& r = kernel_rows[i];
        std::fprintf(f,
                     "    {\"kernel\": \"%s\", \"shape\": \"%s\", \"ns_scalar_t1\": %.1f, "
                     "\"ns_avx2_t1\": %.1f}%s\n",
                     r.kernel.c_str(), r.shape.c_str(), r.ns_tier[0], r.ns_tier[1],
                     i + 1 < kernel_rows.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", path);
}

// ---- google-benchmark micro suite --------------------------------------------

void BM_MatmulForward(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    util::Rng rng(1);
    nn::Var a = nn::make_var(nn::Tensor::randn(rng, {n, n}));
    nn::Var b = nn::make_var(nn::Tensor::randn(rng, {n, n}));
    for (auto _ : state) {
        benchmark::DoNotOptimize(nn::matmul(a, b)->value.data().data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n * n * n);
}
BENCHMARK(BM_MatmulForward)->Arg(64)->Arg(128)->Arg(256);

void BM_AttentionForwardBackward(benchmark::State& state) {
    const auto t = static_cast<std::size_t>(state.range(0));
    util::Rng rng(2);
    nn::MultiHeadSelfAttention attn(64, 4, rng);
    for (auto _ : state) {
        nn::Var x = nn::make_param(nn::Tensor::randn(rng, {4, t, 64}, 0.5f));
        nn::Var loss = nn::mean_all(attn.forward(x));
        nn::backward(loss);
        benchmark::DoNotOptimize(x->grad.data().data());
    }
}
BENCHMARK(BM_AttentionForwardBackward)->Arg(32)->Arg(64)->Arg(128);

void BM_TransformerTrainStep(benchmark::State& state) {
    util::Rng rng(3);
    nn::TransformerConfig cfg;
    cfg.d_token = 9;
    cfg.d_model = 64;
    cfg.heads = 4;
    cfg.mlp_hidden = 256;
    cfg.blocks = 2;
    cfg.max_seq_len = 128;
    nn::Transformer model(cfg, rng);
    auto params = model.parameters();
    for (auto _ : state) {
        nn::Var x = nn::make_var(nn::Tensor::randn(rng, {8, 64, 9}, 0.5f));
        nn::Var loss = nn::mean_all(model.forward(x));
        nn::zero_grad(params);
        nn::backward(loss);
        benchmark::DoNotOptimize(params.front()->grad.data().data());
    }
}
BENCHMARK(BM_TransformerTrainStep);

void BM_LstmStep(benchmark::State& state) {
    util::Rng rng(4);
    nn::LstmStack lstm(18, 48, 1, rng);
    auto st = lstm.zero_state(32);
    nn::Var x = nn::make_var(nn::Tensor::randn(rng, {32, 18}, 0.5f));
    for (auto _ : state) {
        auto [h, next] = lstm.step(x, st);
        benchmark::DoNotOptimize(h->value.data().data());
    }
}
BENCHMARK(BM_LstmStep);

void BM_CptGptSampleToken(benchmark::State& state) {
    // Cost of one autoregressive forward at context length T.
    const auto t = static_cast<std::size_t>(state.range(0));
    util::Rng rng(5);
    const core::Tokenizer tok(cellular::Generation::kLte4G, 0.0, 8.0);
    core::CptGptConfig cfg;
    cfg.max_seq_len = 256;
    const core::CptGpt model(tok, cfg, rng);
    nn::Var x = nn::make_var(nn::Tensor::randn(rng, {1, t, tok.d_token()}, 0.5f));
    for (auto _ : state) {
        const auto out = model.forward(x);
        benchmark::DoNotOptimize(out.event_logits->value.data().data());
    }
}
BENCHMARK(BM_CptGptSampleToken)->Arg(16)->Arg(64)->Arg(192);

}  // namespace

int main(int argc, char** argv) {
    std::printf("== GEMM GFLOP/s (blocked kernels, one thread per tier) ==\n");
    const auto rows = run_gemm_suite();
    std::printf("== kernels, ns per call (one thread per tier) ==\n");
    const auto kernel_rows = run_kernel_suite();
    write_json(rows, kernel_rows, "BENCH_micro_nn.json");

    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
