// End-to-end generation throughput: Sampler::generate driven through the
// KV-cached decoder and the SIMD kernel layer, reported as streams/sec and
// tokens/sec per available SIMD tier and per decode precision — fp32 vs the
// int8 weight-quantized path with fp16 KV storage (DESIGN.md §12). A raw
// decode-engine row holds the batch full for a fixed number of steps,
// isolating the kernel path from stop-sampling variance; the memory section
// reports the resident bytes of decoder weights and KV cache in each mode.
// Emits BENCH_e2e_generate.json next to the binary.
//
// The tier/precision rows use an untrained model — generation throughput
// depends on shapes, not on weight values — so they need no checkpoint and
// run in seconds. The speculative-decode k-sweep at the end is the exception:
// draft acceptance (and therefore the speedup) is a property of the learned
// token distribution, so that section trains a serve-scale model in-process
// (~1 min) before sweeping spec_k, and additionally reports Table-6 fidelity
// deltas per k to show speculation leaves the output distribution inside the
// ε band. Set CPT_BENCH_SPEC=0 to skip the sweep and keep the quick rows.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <span>
#include <vector>

#include "core/model.hpp"
#include "core/sampler.hpp"
#include "core/spec_drafter.hpp"
#include "core/tokenizer.hpp"
#include "core/trainer.hpp"
#include "metrics/fidelity.hpp"
#include "trace/synthetic.hpp"
#include "util/cpu.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace cpt;

std::vector<util::SimdTier> available_tiers() {
    std::vector<util::SimdTier> tiers{util::SimdTier::kScalar};
    if (util::simd_tier_available(util::SimdTier::kSse2)) tiers.push_back(util::SimdTier::kSse2);
    if (util::simd_tier_available(util::SimdTier::kAvx2)) tiers.push_back(util::SimdTier::kAvx2);
    return tiers;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

struct E2eRow {
    const char* tier;
    const char* precision;
    std::size_t streams = 0;
    std::size_t tokens = 0;
    double seconds = 0.0;
    double streams_per_sec = 0.0;
    double tokens_per_sec = 0.0;
};

struct DecodeRow {
    const char* tier;
    const char* precision;
    std::size_t batch = 0;
    std::size_t steps = 0;
    double seconds = 0.0;
    double tokens_per_sec = 0.0;
};

// Per-stage attribution of the generate workload (Sampler::StageTimes),
// accumulated over the same stream count as the e2e rows.
struct StageRow {
    const char* tier;
    const char* precision;
    cpt::core::Sampler::StageTimes times;
};

// One spec_k point of the speculative-decode sweep (DESIGN.md §16): raw
// throughput plus the accept-rate/tokens-per-forward decomposition and the
// five Table-6 maxy fidelity metrics with their delta against the k=1 row.
struct SpecRow {
    std::size_t k = 0;
    std::size_t tokens = 0;
    double seconds = 0.0;
    double tokens_per_sec = 0.0;
    double speedup = 0.0;
    double accept_rate = 0.0;
    double tokens_per_forward = 0.0;
    std::size_t steps = 0;
    std::size_t verify_steps = 0;
    metrics::FidelityReport fid;
    double dfid[5] = {0, 0, 0, 0, 0};
    double max_abs_dfid = 0.0;
};

}  // namespace

int main() {
    // Flagship-ish model on a synthetic-world tokenizer; untrained weights.
    trace::SyntheticWorldConfig wcfg;
    wcfg.population = {60, 0, 0};
    wcfg.seed = 7;
    const auto world = trace::SyntheticWorldGenerator(wcfg).generate();
    const auto tok = core::Tokenizer::fit(world);
    util::Rng init(11);
    core::CptGptConfig cfg;
    cfg.d_model = 128;
    cfg.heads = 4;
    cfg.mlp_hidden = 1024;
    cfg.blocks = 2;
    cfg.max_seq_len = 128;
    cfg.head_hidden = 128;
    core::CptGpt model(tok, cfg, init);
    model.quantize_weights();

    core::SamplerConfig scfg;
    scfg.batch = 32;
    const core::Sampler sampler_fp32(model, tok, world.initial_event_distribution(), scfg);
    core::SamplerConfig qcfg = scfg;
    qcfg.precision = nn::Precision::kInt8W8A32;
    const core::Sampler sampler_int8(model, tok, world.initial_event_distribution(), qcfg);

    const std::size_t n_streams = 256;
    const std::size_t decode_batch = 32;
    const std::size_t decode_steps = 96;
    const std::size_t threads = util::configured_threads();

    // Resident decode-path memory per mode: weight matrices (the tensors the
    // decode GEMVs read) and the KV cache at `decode_batch` rows.
    std::size_t weights_fp32_bytes = 0;
    for (const auto& np : model.named_parameters("cptgpt.")) {
        const auto& shape = np.param->value.shape();
        if (shape.size() == 2 && np.name.size() > 7 &&
            np.name.compare(np.name.size() - 7, 7, ".weight") == 0) {
            weights_fp32_bytes += nn::shape_numel(shape) * sizeof(float);
        }
    }
    const std::size_t weights_int8_bytes = model.quantized_weights().weight_bytes();
    const std::size_t kv_fp32_bytes = model.make_decoder(decode_batch).kv_bytes();
    const std::size_t kv_fp16_bytes =
        model.make_decoder(decode_batch, nn::Precision::kInt8W8A32).kv_bytes();

    struct Mode {
        const char* name;
        nn::Precision precision;
        const core::Sampler* sampler;
    };
    const Mode modes[] = {
        {"fp32", nn::Precision::kFp32, &sampler_fp32},
        {"int8_w8a32", nn::Precision::kInt8W8A32, &sampler_int8},
    };

    std::vector<E2eRow> e2e_rows;
    std::vector<StageRow> stage_rows;
    std::vector<DecodeRow> decode_rows;
    for (util::SimdTier tier : available_tiers()) {
        const util::SimdTier prev = util::set_simd_tier(tier);
        for (const Mode& mode : modes) {
            const core::Sampler& sampler = *mode.sampler;

            // Full pipeline: bootstrap + decode + sampling + compaction.
            {
                util::Rng rng(42);
                sampler.generate(8, rng);  // warm-up
                util::Rng rng2(42);
                const auto t0 = std::chrono::steady_clock::now();
                const auto ds = sampler.generate(n_streams, rng2);
                E2eRow row{util::simd_tier_name(tier), mode.name};
                row.seconds = seconds_since(t0);
                row.streams = ds.streams.size();
                for (const auto& s : ds.streams) row.tokens += s.events.size();
                row.streams_per_sec = static_cast<double>(row.streams) / row.seconds;
                row.tokens_per_sec = static_cast<double>(row.tokens) / row.seconds;
                e2e_rows.push_back(row);
                std::printf("e2e_generate  tier %-6s %-10s  %zu streams (%zu tokens) in %.3f s  "
                            "-> %8.1f streams/s  %9.1f tokens/s\n",
                            row.tier, row.precision, row.streams, row.tokens, row.seconds,
                            row.streams_per_sec, row.tokens_per_sec);
            }

            // Stage attribution: the e2e row's streams (same serials, same
            // bytes), driven through generate_batch with a StageTimes
            // accumulator so tier-to-tier and precision-to-precision
            // differences can be pinned to a stage. The schedule differs:
            // generate() refills each lane's rows from a serial cursor at
            // every step, while these static batches of scfg.batch shrink as
            // streams stop (mean stream length is ~3 tokens here), so this
            // decode stage runs mostly tiny shapes — unlike the held-full
            // decode_engine row below.
            {
                util::Rng root(42);
                std::vector<util::Rng> rngs;
                rngs.reserve(n_streams);
                for (std::size_t i = 0; i < n_streams; ++i) rngs.push_back(root.fork(i));
                StageRow row{util::simd_tier_name(tier), mode.name, {}};
                for (std::size_t b0 = 0; b0 < n_streams; b0 += scfg.batch) {
                    const std::size_t b1 = std::min(b0 + scfg.batch, n_streams);
                    sampler.generate_batch(std::span(rngs).subspan(b0, b1 - b0), "stage", b0,
                                           &row.times);
                }
                stage_rows.push_back(row);
                const auto& t = row.times;
                std::printf("stage_times   tier %-6s %-10s  %zu steps: bootstrap %.4f s  "
                            "decode %.4f s  sample %.4f s  compact %.4f s\n",
                            row.tier, row.precision, t.steps, t.bootstrap, t.decode, t.sample,
                            t.compact);
            }

            // Decode engine only: full batch held for a fixed step count.
            {
                auto decoder = model.make_decoder(decode_batch, mode.precision);
                auto scratch = model.make_decode_scratch(decode_batch, mode.precision);
                nn::Tensor x = nn::Tensor::zeros({decode_batch, tok.d_token()});
                const auto t0 = std::chrono::steady_clock::now();
                for (std::size_t t = 0; t < decode_steps; ++t) {
                    model.decode_step(decoder, x, scratch);
                }
                DecodeRow row{util::simd_tier_name(tier), mode.name, decode_batch, decode_steps};
                row.seconds = seconds_since(t0);
                row.tokens_per_sec =
                    static_cast<double>(decode_batch * decode_steps) / row.seconds;
                decode_rows.push_back(row);
                std::printf("decode_engine tier %-6s %-10s  batch %zu x %zu steps in %.3f s  "
                            "-> %9.1f tokens/s\n",
                            row.tier, row.precision, row.batch, row.steps, row.seconds,
                            row.tokens_per_sec);
            }
        }
        util::set_simd_tier(prev);
    }

    // int8 gain on the host's best tier (the last tier in available_tiers()).
    // The e2e number is the served workload shape — batches shrink as streams
    // stop, so decode runs mostly GEMV-shaped rows where int8 wins most; the
    // engine number is the held-full batch-32 GEMM shape where fp32 AVX2 is
    // already near peak and the gain is attention/overhead-diluted.
    double e2e_speedup_int8 = 0.0;
    double decode_engine_speedup_int8 = 0.0;
    if (e2e_rows.size() >= 2 && decode_rows.size() >= 2) {
        const auto& gen_fp32 = e2e_rows[e2e_rows.size() - 2];
        const auto& gen_int8 = e2e_rows[e2e_rows.size() - 1];
        e2e_speedup_int8 = gen_int8.tokens_per_sec / gen_fp32.tokens_per_sec;
        const auto& eng_fp32 = decode_rows[decode_rows.size() - 2];
        const auto& eng_int8 = decode_rows[decode_rows.size() - 1];
        decode_engine_speedup_int8 = eng_int8.tokens_per_sec / eng_fp32.tokens_per_sec;
        std::printf("int8 / fp32 speedup (tier %s): e2e tokens/s %.2fx, held-full engine %.2fx\n",
                    gen_int8.tier, e2e_speedup_int8, decode_engine_speedup_int8);
    }
    std::printf("memory: weights fp32 %zu B -> int8 %zu B; kv fp32 %zu B -> fp16 %zu B "
                "(batch %zu)\n",
                weights_fp32_bytes, weights_int8_bytes, kv_fp32_bytes, kv_fp16_bytes,
                decode_batch);

    // ---- Speculative multi-token decode k-sweep (DESIGN.md §16) ----
    // Draft acceptance is a property of the learned token distribution, so
    // this section trains the serve-scale flagship on the bench world and
    // bootstraps the n-gram drafter from the model's own plain-decode output.
    // The sweep runs single-stream decode (batch 1) — the latency-bound shape
    // speculation exists for — on the host's best tier, and reports per k:
    // tokens/s, accepted-draft rate, tokens per forward pass, and the five
    // Table-6 maxy fidelity metrics as deltas against the k=1 row. Rejection
    // sampling makes each accepted token distributed exactly as the plain
    // path's, so the deltas must sit inside the metrics_test ε band (0.12);
    // `fidelity_within_epsilon` in the JSON asserts that.
    core::CptGptConfig spec_cfg;
    spec_cfg.d_model = 256;
    spec_cfg.heads = 4;
    spec_cfg.mlp_hidden = 2048;
    spec_cfg.blocks = 3;
    spec_cfg.max_seq_len = 128;
    spec_cfg.head_hidden = 128;
    const std::size_t spec_boot_streams = 512;
    const std::size_t spec_streams = 192;
    const double spec_epsilon = 0.12;
    std::size_t spec_train_epochs = 0;
    std::vector<SpecRow> spec_rows;
    const char* spec_env = std::getenv("CPT_BENCH_SPEC");
    const bool run_spec = spec_env == nullptr || std::strcmp(spec_env, "0") != 0;
    if (run_spec) {
        util::Rng sinit(11);
        core::CptGpt smodel(tok, spec_cfg, sinit);
        core::TrainConfig tcfg;
        tcfg.max_epochs = 16;
        tcfg.window = 32;
        tcfg.patience = 100;
        auto t0 = std::chrono::steady_clock::now();
        core::Trainer trainer(smodel, tok, tcfg);
        spec_train_epochs = static_cast<std::size_t>(trainer.train(world).epochs_run);
        std::printf("spec_sweep    trained d=%zu model %zu epochs in %.1f s\n", spec_cfg.d_model,
                    spec_train_epochs, seconds_since(t0));

        core::SamplerConfig boot_cfg;
        boot_cfg.batch = 32;
        const core::Sampler boot(smodel, tok, world.initial_event_distribution(), boot_cfg);
        util::Rng boot_rng(123);
        t0 = std::chrono::steady_clock::now();
        const auto boot_ds = boot.generate(spec_boot_streams, boot_rng, "boot");
        std::printf("spec_sweep    bootstrapped drafter from %zu streams in %.1f s\n",
                    spec_boot_streams, seconds_since(t0));
        const auto drafter = core::SpecDrafter::fit(boot_ds, tok);

        metrics::FidelityReport base_fid;
        double base_tps = 0.0;
        for (std::size_t k : {std::size_t{1}, std::size_t{2}, std::size_t{4}, std::size_t{5},
                              std::size_t{6}, std::size_t{8}}) {
            core::SamplerConfig sc;
            sc.batch = 1;
            sc.spec_k = k;
            sc.drafter = k > 1 ? &drafter : nullptr;
            const core::Sampler sampler(smodel, tok, world.initial_event_distribution(), sc);
            util::Rng root(42);
            std::vector<util::Rng> rngs;
            rngs.reserve(spec_streams);
            for (std::size_t i = 0; i < spec_streams; ++i) rngs.push_back(root.fork(i));
            core::Sampler::StageTimes times;
            trace::Dataset ds;
            ds.generation = world.generation;
            SpecRow row;
            row.k = k;
            t0 = std::chrono::steady_clock::now();
            for (std::size_t i = 0; i < spec_streams; ++i) {
                auto streams = sampler.generate_batch(std::span(rngs).subspan(i, 1), "spec", i,
                                                      &times);
                for (auto& s : streams) {
                    row.tokens += s.events.size();
                    ds.streams.push_back(std::move(s));
                }
            }
            row.seconds = seconds_since(t0);
            row.tokens_per_sec = static_cast<double>(row.tokens) / row.seconds;
            if (k == 1) base_tps = row.tokens_per_sec;
            row.speedup = row.tokens_per_sec / base_tps;
            row.accept_rate = times.spec_proposed > 0
                                  ? static_cast<double>(times.spec_accepted) /
                                        static_cast<double>(times.spec_proposed)
                                  : 0.0;
            row.steps = times.steps;
            row.verify_steps = times.verify_steps;
            const double forwards = static_cast<double>(times.steps + times.verify_steps);
            row.tokens_per_forward = forwards > 0.0 ? row.tokens / forwards : 0.0;
            row.fid = metrics::evaluate_fidelity(ds, world);
            if (k == 1) base_fid = row.fid;
            row.dfid[0] = row.fid.maxy_sojourn_connected - base_fid.maxy_sojourn_connected;
            row.dfid[1] = row.fid.maxy_sojourn_idle - base_fid.maxy_sojourn_idle;
            row.dfid[2] = row.fid.maxy_flow_length_all - base_fid.maxy_flow_length_all;
            row.dfid[3] = row.fid.maxy_flow_length_srv_req - base_fid.maxy_flow_length_srv_req;
            row.dfid[4] = row.fid.maxy_flow_length_s1_rel - base_fid.maxy_flow_length_s1_rel;
            for (double d : row.dfid) {
                if (std::abs(d) > row.max_abs_dfid) row.max_abs_dfid = std::abs(d);
            }
            spec_rows.push_back(row);
            std::printf("spec_sweep    k=%zu  %6zu tokens in %.2f s -> %7.1f tokens/s (%.3fx)  "
                        "acc %.3f  tok/fwd %.2f  max|dfid| %.4f\n",
                        row.k, row.tokens, row.seconds, row.tokens_per_sec, row.speedup,
                        row.accept_rate, row.tokens_per_forward, row.max_abs_dfid);
        }
    }
    std::size_t spec_best_k = 1;
    double spec_best_speedup = 1.0;
    bool spec_within_eps = true;
    for (const auto& r : spec_rows) {
        if (r.speedup > spec_best_speedup) {
            spec_best_speedup = r.speedup;
            spec_best_k = r.k;
        }
        if (r.max_abs_dfid >= spec_epsilon) spec_within_eps = false;
    }
    if (!spec_rows.empty()) {
        std::printf("spec_sweep    best k=%zu -> %.3fx  fidelity within eps %.2f: %s\n",
                    spec_best_k, spec_best_speedup, spec_epsilon,
                    spec_within_eps ? "yes" : "NO");
    }

    const char* path = "BENCH_e2e_generate.json";
    std::FILE* f = std::fopen(path, "w");
    if (!f) {
        std::fprintf(stderr, "bench_e2e_generate: cannot write %s\n", path);
        return 1;
    }
    std::fprintf(f,
                 "{\n  \"bench\": \"e2e_generate\",\n  \"threads_configured\": %zu,\n"
                 "  \"model\": {\"d_model\": %zu, \"mlp_hidden\": %zu, \"blocks\": %zu, "
                 "\"max_seq_len\": %zu},\n"
                 "  \"memory\": {\"weights_fp32_bytes\": %zu, \"weights_int8_bytes\": %zu, "
                 "\"kv_fp32_bytes\": %zu, \"kv_fp16_bytes\": %zu, \"kv_batch\": %zu},\n"
                 "  \"generate_rows\": [\n",
                 threads, cfg.d_model, cfg.mlp_hidden, cfg.blocks, cfg.max_seq_len,
                 weights_fp32_bytes, weights_int8_bytes, kv_fp32_bytes, kv_fp16_bytes,
                 decode_batch);
    for (std::size_t i = 0; i < e2e_rows.size(); ++i) {
        const auto& r = e2e_rows[i];
        std::fprintf(f,
                     "    {\"tier\": \"%s\", \"precision\": \"%s\", \"streams\": %zu, "
                     "\"tokens\": %zu, \"seconds\": %.4f, \"streams_per_sec\": %.1f, "
                     "\"tokens_per_sec\": %.1f}%s\n",
                     r.tier, r.precision, r.streams, r.tokens, r.seconds, r.streams_per_sec,
                     r.tokens_per_sec, i + 1 < e2e_rows.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"stage_rows\": [\n");
    for (std::size_t i = 0; i < stage_rows.size(); ++i) {
        const auto& r = stage_rows[i];
        std::fprintf(f,
                     "    {\"tier\": \"%s\", \"precision\": \"%s\", \"steps\": %zu, "
                     "\"bootstrap_sec\": %.4f, \"decode_sec\": %.4f, \"sample_sec\": %.4f, "
                     "\"compact_sec\": %.4f}%s\n",
                     r.tier, r.precision, r.times.steps, r.times.bootstrap, r.times.decode,
                     r.times.sample, r.times.compact, i + 1 < stage_rows.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"decode_rows\": [\n");
    for (std::size_t i = 0; i < decode_rows.size(); ++i) {
        const auto& r = decode_rows[i];
        std::fprintf(f,
                     "    {\"tier\": \"%s\", \"precision\": \"%s\", \"batch\": %zu, "
                     "\"steps\": %zu, \"seconds\": %.4f, \"tokens_per_sec\": %.1f}%s\n",
                     r.tier, r.precision, r.batch, r.steps, r.seconds, r.tokens_per_sec,
                     i + 1 < decode_rows.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"e2e_speedup_int8\": %.3f,\n  \"decode_engine_speedup_int8\": %.3f,\n",
                 e2e_speedup_int8, decode_engine_speedup_int8);
    std::fprintf(f,
                 "  \"spec_sweep\": {\n"
                 "    \"enabled\": %s,\n"
                 "    \"tier\": \"%s\",\n"
                 "    \"model\": {\"d_model\": %zu, \"mlp_hidden\": %zu, \"blocks\": %zu},\n"
                 "    \"train_epochs\": %zu,\n"
                 "    \"bootstrap_streams\": %zu,\n"
                 "    \"streams\": %zu,\n"
                 "    \"fidelity_epsilon\": %.2f,\n"
                 "    \"rows\": [\n",
                 run_spec ? "true" : "false", util::simd_tier_name(util::active_simd_tier()),
                 spec_cfg.d_model, spec_cfg.mlp_hidden, spec_cfg.blocks, spec_train_epochs,
                 spec_boot_streams, spec_streams, spec_epsilon);
    for (std::size_t i = 0; i < spec_rows.size(); ++i) {
        const auto& r = spec_rows[i];
        std::fprintf(f,
                     "      {\"k\": %zu, \"tokens\": %zu, \"seconds\": %.4f, "
                     "\"tokens_per_sec\": %.1f, \"speedup\": %.3f, \"accept_rate\": %.4f, "
                     "\"tokens_per_forward\": %.3f, \"steps\": %zu, \"verify_steps\": %zu,\n"
                     "       \"fidelity\": {\"maxy_sojourn_connected\": %.4f, "
                     "\"maxy_sojourn_idle\": %.4f, \"maxy_flow_length_all\": %.4f, "
                     "\"maxy_flow_length_srv_req\": %.4f, \"maxy_flow_length_s1_rel\": %.4f},\n"
                     "       \"fidelity_delta_vs_k1\": {\"maxy_sojourn_connected\": %.4f, "
                     "\"maxy_sojourn_idle\": %.4f, \"maxy_flow_length_all\": %.4f, "
                     "\"maxy_flow_length_srv_req\": %.4f, \"maxy_flow_length_s1_rel\": %.4f, "
                     "\"max_abs\": %.4f}}%s\n",
                     r.k, r.tokens, r.seconds, r.tokens_per_sec, r.speedup, r.accept_rate,
                     r.tokens_per_forward, r.steps, r.verify_steps, r.fid.maxy_sojourn_connected,
                     r.fid.maxy_sojourn_idle, r.fid.maxy_flow_length_all,
                     r.fid.maxy_flow_length_srv_req, r.fid.maxy_flow_length_s1_rel, r.dfid[0],
                     r.dfid[1], r.dfid[2], r.dfid[3], r.dfid[4], r.max_abs_dfid,
                     i + 1 < spec_rows.size() ? "," : "");
    }
    std::fprintf(f,
                 "    ],\n    \"best_k\": %zu,\n    \"best_speedup\": %.3f,\n"
                 "    \"fidelity_within_epsilon\": %s\n  }\n}\n",
                 spec_best_k, spec_best_speedup, spec_within_eps ? "true" : "false");
    std::fclose(f);
    std::printf("wrote %s\n", path);
    return 0;
}
