// Training-path throughput: Trainer::train driven through the arena-backed
// tape, SIMD backward kernels, and fused optimizer, reported as optimizer
// steps/sec and window-tokens/sec per available SIMD tier (speedup vs the
// scalar baseline), plus thread-scaling rows at 1-4 threads (the trainer's
// fixed 4-window shards are its only parallelism — every kernel runs on its
// shard's thread — so every row trains the same bytes) and the Design-3
// parallel per-slice fine-tune cost through HubTrainer. Emits BENCH_train.json
// next to the binary, stamped with the host it ran on.
//
// The model is untrained and the data synthetic — training throughput depends
// on shapes, not weight values — so the bench needs no checkpoint and runs in
// well under a minute.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/hub_trainer.hpp"
#include "core/model.hpp"
#include "core/model_hub.hpp"
#include "core/trainer.hpp"
#include "trace/synthetic.hpp"
#include "util/cpu.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace cpt;

std::string cpu_model() {
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos) {
                return line.substr(line.find_first_not_of(' ', colon + 1));
            }
        }
    }
    return "unknown";
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

trace::Dataset phone_world(std::size_t n, std::uint64_t seed) {
    trace::SyntheticWorldConfig cfg;
    cfg.population = {n, 0, 0};
    cfg.seed = seed;
    return trace::SyntheticWorldGenerator(cfg).generate();
}

core::CptGptConfig bench_model() {
    core::CptGptConfig cfg;
    cfg.d_model = 128;
    cfg.heads = 4;
    cfg.mlp_hidden = 1024;
    cfg.blocks = 2;
    cfg.max_seq_len = 128;
    cfg.head_hidden = 128;
    return cfg;
}

core::TrainConfig bench_train_config() {
    core::TrainConfig cfg;
    cfg.batch_size = 16;
    cfg.window = 32;
    cfg.max_epochs = 2;
    cfg.patience = 100;  // fixed-epoch run: never early-stop
    cfg.lr_decay = false;
    cfg.verbose = false;
    return cfg;
}

struct TrainRow {
    const char* tier;
    std::size_t threads = 1;
    std::size_t steps = 0;
    std::size_t tokens = 0;
    int epochs = 0;
    double seconds = 0.0;
    double steps_per_sec = 0.0;
    double tokens_per_sec = 0.0;
    double epoch_seconds = 0.0;
    double speedup = 0.0;  // vs the section's baseline row
    double final_loss = 0.0;
};

TrainRow run_train(const trace::Dataset& world, util::SimdTier tier, std::size_t threads) {
    const auto tok = core::Tokenizer::fit(world);
    util::Rng init(17);
    core::CptGpt model(tok, bench_model(), init);
    core::Trainer trainer(model, tok, bench_train_config());
    TrainRow row{util::simd_tier_name(tier), threads};
    const auto t0 = std::chrono::steady_clock::now();
    const auto r = trainer.train(world);
    row.seconds = seconds_since(t0);
    row.steps = r.steps;
    row.tokens = r.tokens;
    row.epochs = r.epochs_run;
    row.steps_per_sec = static_cast<double>(r.steps) / row.seconds;
    row.tokens_per_sec = static_cast<double>(r.tokens) / row.seconds;
    row.epoch_seconds = row.seconds / r.epochs_run;
    row.final_loss = r.train_loss.back();
    return row;
}

}  // namespace

int main() {
    const auto world = phone_world(150, 13);
    const std::size_t configured = util::configured_threads();

    // Per-tier rows at one thread: speedup is pure kernel tier.
    util::set_global_threads(1);
    std::vector<TrainRow> tier_rows;
    for (util::SimdTier tier : util::available_simd_tiers()) {
        const util::ScopedSimdTier guard(tier);
        tier_rows.push_back(run_train(world, tier, 1));
    }
    for (auto& r : tier_rows) r.speedup = r.steps_per_sec / tier_rows.front().steps_per_sec;
    for (const auto& r : tier_rows) {
        std::printf("train tier %-6s  %zu steps (%zu tokens) in %.2f s  -> %6.1f steps/s  "
                    "%8.1f tokens/s  (%.2fx vs scalar)\n",
                    r.tier, r.steps, r.tokens, r.seconds, r.steps_per_sec, r.tokens_per_sec,
                    r.speedup);
    }

    // Thread-scaling rows at the active (best available) tier. Loss
    // trajectories are bit-identical across these rows (see
    // tests/train_determinism_test.cpp); only wall-clock may move.
    const char* active = util::simd_tier_name(util::active_simd_tier());
    std::vector<TrainRow> thread_rows;
    for (std::size_t t = 1; t <= 4; ++t) {
        util::set_global_threads(t);
        thread_rows.push_back(run_train(world, util::active_simd_tier(), t));
    }
    bool same_loss = true;
    for (auto& r : thread_rows) {
        r.speedup = r.steps_per_sec / thread_rows.front().steps_per_sec;
        same_loss = same_loss && r.final_loss == thread_rows.front().final_loss;
    }
    for (const auto& r : thread_rows) {
        std::printf("train tier %-6s  threads %zu  %.2f s  -> %6.1f steps/s  (%.2fx vs 1 thread)\n",
                    r.tier, r.threads, r.seconds, r.steps_per_sec, r.speedup);
    }
    std::printf("final train loss identical across thread counts: %s\n", same_loss ? "yes" : "NO");

    // Design-3 hub fine-tune: pretrain one model, fine-tune one copy per
    // hour slice through HubTrainer (worker-parallel across slices).
    util::set_global_threads(configured);
    const auto tok = core::Tokenizer::fit(world);
    core::HubTrainOptions options;
    options.model = bench_model();
    options.train = bench_train_config();
    options.publish = false;
    util::Rng init(17);
    core::CptGpt pretrained(tok, options.model, init);
    {
        core::Trainer trainer(pretrained, tok, options.train);
        trainer.train(world);
    }
    const std::vector<trace::Dataset> slice_worlds = {
        phone_world(60, 21), phone_world(60, 22), phone_world(60, 23)};
    std::vector<core::HubSlice> slices;
    for (std::size_t i = 0; i < slice_worlds.size(); ++i) {
        slices.push_back({trace::DeviceType::kPhone, static_cast<int>(8 * i), &slice_worlds[i]});
    }
    core::ModelHub hub("bench_train_hub");
    core::HubTrainer hub_trainer(hub, options);
    const auto t0 = std::chrono::steady_clock::now();
    const auto slice_results = hub_trainer.fine_tune_all(pretrained, tok, slices);
    const double hub_seconds = seconds_since(t0);
    double slice_sum = 0.0;
    for (const auto& s : slice_results) slice_sum += s.result.seconds;
    std::printf("hub fine_tune  %zu slices in %.2f s wall (sum of per-slice %.2f s, "
                "threads %zu)\n",
                slice_results.size(), hub_seconds, slice_sum, configured);

    const char* path = "BENCH_train.json";
    std::FILE* f = std::fopen(path, "w");
    if (!f) {
        std::fprintf(stderr, "bench_train: cannot write %s\n", path);
        return 1;
    }
    const auto mdl = bench_model();
    const auto tcfg = bench_train_config();
    const char* threads_env = std::getenv("CPT_THREADS");
    std::fprintf(f,
                 "{\n  \"bench\": \"train\",\n"
                 "  \"host\": {\"cpu\": \"%s\", \"nproc\": %u, \"simd\": \"%s\", "
                 "\"cpt_threads\": \"%s\", \"build\": \"%s\"},\n"
                 "  \"threads_configured\": %zu,\n"
                 "  \"model\": {\"d_model\": %zu, \"mlp_hidden\": %zu, \"blocks\": %zu},\n"
                 "  \"train\": {\"batch_size\": %zu, \"window\": %zu, \"epochs\": %d},\n"
                 "  \"tier_rows\": [\n",
                 cpu_model().c_str(), std::thread::hardware_concurrency(), active,
                 threads_env ? threads_env : "unset", CPT_BENCH_BUILD_TYPE, configured,
                 mdl.d_model, mdl.mlp_hidden, mdl.blocks, tcfg.batch_size, tcfg.window,
                 tcfg.max_epochs);
    for (std::size_t i = 0; i < tier_rows.size(); ++i) {
        const auto& r = tier_rows[i];
        std::fprintf(f,
                     "    {\"tier\": \"%s\", \"threads\": %zu, \"steps\": %zu, \"tokens\": %zu, "
                     "\"seconds\": %.4f, \"steps_per_sec\": %.2f, \"tokens_per_sec\": %.1f, "
                     "\"epoch_seconds\": %.4f, \"speedup_vs_scalar\": %.3f}%s\n",
                     r.tier, r.threads, r.steps, r.tokens, r.seconds, r.steps_per_sec,
                     r.tokens_per_sec, r.epoch_seconds, r.speedup,
                     i + 1 < tier_rows.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"thread_rows_identical_loss\": %s,\n  \"thread_rows\": [\n",
                 same_loss ? "true" : "false");
    for (std::size_t i = 0; i < thread_rows.size(); ++i) {
        const auto& r = thread_rows[i];
        std::fprintf(f,
                     "    {\"tier\": \"%s\", \"threads\": %zu, \"seconds\": %.4f, "
                     "\"steps_per_sec\": %.2f, \"speedup_vs_1_thread\": %.3f, "
                     "\"final_loss\": %.9g}%s\n",
                     active, r.threads, r.seconds, r.steps_per_sec, r.speedup, r.final_loss,
                     i + 1 < thread_rows.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"hub_fine_tune\": {\"slices\": %zu, \"wall_seconds\": %.4f, "
                 "\"slice_seconds_sum\": %.4f, \"threads\": %zu, \"per_slice\": [\n",
                 slice_results.size(), hub_seconds, slice_sum, configured);
    for (std::size_t i = 0; i < slice_results.size(); ++i) {
        const auto& s = slice_results[i];
        std::fprintf(f,
                     "    {\"hour\": %d, \"epochs\": %d, \"steps\": %zu, \"seconds\": %.4f}%s\n",
                     s.hour_of_day, s.result.epochs_run, s.result.steps, s.result.seconds,
                     i + 1 < slice_results.size() ? "," : "");
    }
    std::fprintf(f, "  ]}\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", path);
    return 0;
}
