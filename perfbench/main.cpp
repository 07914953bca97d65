// Whole-stack CPT-GPT benchmark: trains a model, publishes it, starts two
// cpt-serve backends behind a cpt-router, and measures one workload.
//
//   cpt_perfbench --workload=offline_trace|serve_stream
//                 --seed=N --seconds=S --trace=0|1 --run-dir=DIR
//                 [--source=DIGEST]
//
// Prints "# "-prefixed report lines, then one JSON line:
// {"correct", "attempted", "failed", "metrics"}. With --trace=0 the metrics
// are the end-to-end set, with --trace=1 the per-layer set. A failed
// correctness check makes the exit code 3. See README.md.
#include <malloc.h>
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>

#include "bench.hpp"
#include "core/model_hub.hpp"
#include "util/cli.hpp"
#include "util/cpu.hpp"
#include "util/thread_pool.hpp"

#ifndef CPT_BENCH_BUILD_TYPE
#define CPT_BENCH_BUILD_TYPE "unknown"
#endif

namespace cpt::perfbench {
namespace {

constexpr int kSetups = 3;

std::string cpu_model() {
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

double peak_rss_mb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::string json_escape(const std::string& s) {
    std::string out;
    for (const char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20) out += c;
    }
    return out;
}

void print_metrics(const std::map<std::string, Metric>& m, const Report& rep) {
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
                rep.errors.empty() ? "true" : "false", static_cast<unsigned long long>(rep.attempted),
                static_cast<unsigned long long>(rep.failed));
    bool first = true;
    for (const auto& [name, metric] : m) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ", name.c_str(),
                    std::isfinite(metric.value) ? metric.value : 0.0, metric.unit.c_str());
        first = false;
    }
    std::printf("}}\n");
}

int run(const util::Options& args) {
    RunOptions opt;
    opt.workload = args.get("workload", "");
    opt.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
    opt.seconds = static_cast<double>(args.get_int("seconds", 10));
    opt.trace = args.get_int("trace", 0) != 0;
    opt.run_dir = args.get("run-dir", "perfbench-run");
    const unsigned hw = std::thread::hardware_concurrency();
    opt.conns = hw > 0 ? hw : 1;
    if (opt.workload != "offline_trace" && opt.workload != "serve_stream") {
        std::fprintf(stderr, "unknown --workload '%s'\n", opt.workload.c_str());
        return 2;
    }
    std::filesystem::create_directories(opt.run_dir);

    Report rep;
    const char* threads_env = std::getenv("CPT_THREADS");
    rep.note("stamp: {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %.0f, \"trace\": %d, "
             "\"cpu\": \"%s\", \"simd\": \"%s\", \"nproc\": %u, \"cpt_threads\": \"%s\", "
             "\"pool_threads\": %zu, \"build\": \"%s\", \"source\": \"%s\"}",
             opt.workload.c_str(), static_cast<unsigned long long>(opt.seed), opt.seconds, opt.trace ? 1 : 0,
             json_escape(cpu_model()).c_str(), util::simd_tier_name(util::active_simd_tier()), hw,
             threads_env ? json_escape(threads_env).c_str() : "unset", util::configured_threads(),
             CPT_BENCH_BUILD_TYPE, json_escape(args.get("source", "unknown")).c_str());

    // Set-up, several times: the median is setup_s; the last stack serves.
    // An untraced serve_stream run measures its windows after every set-up,
    // so that they span the whole run: the host's speed drifts over tens of
    // seconds, and the reported figures come from the faster windows.
    SpanLog log;
    Samples setup_s;
    std::unique_ptr<Stack> stack;
    std::uint64_t digest = 0;
    bool same_weights = true;
    std::optional<ServeRun> serve;
    if (!opt.trace && opt.workload == "serve_stream") serve.emplace(opt, log);
    for (int i = 0; i < kSetups; ++i) {
        stack.reset();  // the backends' fixed ports must be free again
        malloc_trim(0);  // peak RSS then reflects one stack, not the freed ones
        stack = std::make_unique<Stack>(opt.run_dir, i, log);
        std::fprintf(stderr, "[perfbench] set-up %d/%d: %.3f s\n", i + 1, kSetups, stack->times().total_s);
        setup_s.add(stack->times().total_s);
        if (i == 0) digest = stack->weights_digest();
        same_weights = same_weights && digest == stack->weights_digest();
        if (serve) serve->windows(*stack, (i + 1) * kServeWindows / kSetups - i * kServeWindows / kSetups);
    }
    const auto& t = stack->times();
    rep.note("setup: median %.3f s of %d (last: world %.3f, train %.3f, publish %.3f, servers %.3f, "
             "warm-up %.3f s)",
             setup_s.median(), kSetups, t.world_gen_s, t.train_s, t.publish_s, t.servers_s, t.warmup_s);
    rep.check(same_weights, "%d trainings produced byte-identical weights (digest %016llx)", kSetups,
              static_cast<unsigned long long>(digest));
    std::string placement;
    for (const auto& [hour, b] : stack->placement()) placement += fmt(" phone/h%d->b%zu", hour, b);
    rep.note("placement (backends on fixed ports %u..%u):%s", unsigned(kBackendPortBase),
             unsigned(kBackendPortBase + kBackends - 1), placement.c_str());

    auto measure = [&](const RunOptions& o, Report& r) {
        if (o.workload == "offline_trace") {
            run_offline_trace(o, *stack, log, r);
        } else {
            run_serve(o, *stack, log, r);
        }
    };

    if (!opt.trace) {
        if (serve) {
            serve->finish(*stack, rep);
        } else {
            measure(opt, rep);
        }
        rep.e2e["setup_s"] = {setup_s.median(), "s"};
        rep.e2e["peak_rss_mb"] = {peak_rss_mb(), "MB"};
    } else {
        // Untraced and traced passes of half the length each: their
        // difference is the tracing overhead.
        RunOptions half = opt;
        half.seconds = opt.seconds / 2.0;
        Report plain;
        measure(half, plain);
        log.set_enabled(true);
        log.clear();
        Report traced;
        measure(half, traced);
        const auto spans = log.snapshot();
        rep.layer = traced.layer;
        rep.notes.insert(rep.notes.end(), traced.notes.begin(), traced.notes.end());
        rep.errors.insert(rep.errors.end(), plain.errors.begin(), plain.errors.end());
        rep.errors.insert(rep.errors.end(), traced.errors.begin(), traced.errors.end());
        rep.attempted += plain.attempted + traced.attempted;
        rep.failed += plain.failed + traced.failed;
        // Overhead on the workload's own time metric: seconds per event
        // offline, median request latency when serving.
        const bool offline = opt.workload == "offline_trace";
        const double base = offline ? 1.0 / plain.e2e["events_per_s"].value : plain.e2e["p50_ms"].value;
        const double with = offline ? 1.0 / traced.e2e["events_per_s"].value : traced.e2e["p50_ms"].value;
        rep.layer["trace.overhead_frac"] = {(with - base) / base, "1"};
        rep.layer["trace.unattributed_frac"] = {unattributed_share(spans), "1"};
        for (const auto& [name, s] : self_seconds(spans)) {
            rep.note("self time %-20s %10.4f s", name.c_str(), s);
        }

        const auto& tr = stack->train_result();
        rep.layer["trainer.train_s"] = {tr.seconds, "s"};
        rep.layer["trainer.steps_per_s"] = {static_cast<double>(tr.steps) / tr.seconds, "1/s"};
        rep.layer["trainer.tokens_per_s"] = {static_cast<double>(tr.tokens) / tr.seconds, "1/s"};
        rep.layer["trace.world_gen_s"] = {t.world_gen_s, "s"};
        rep.layer["hub.publish_s"] = {t.publish_s / std::size(kSliceHours), "s"};
        Samples load_s;
        const core::ModelHub hub(stack->hub_dir());
        for (const int h : kSliceHours) {
            const double t0 = now_s();
            (void)hub.load(trace::DeviceType::kPhone, h, core::CptGptConfig{});
            load_s.add(now_s() - t0);
        }
        rep.layer["hub.load_s"] = {load_s.median(), "s"};
        probe_nn(*stack, rep);
        probe_sampler(*stack, opt.seed, opt.run_dir, rep);
        if (offline) probe_serve(opt, *stack, log, rep);
        log.write_jsonl(opt.run_dir + "/spans-" + opt.workload + ".jsonl");
    }

    for (const auto& n : rep.notes) std::printf("# %s\n", n.c_str());
    print_metrics(opt.trace ? rep.layer : rep.e2e, rep);
    std::fflush(stdout);
    for (const auto& e : rep.errors) std::fprintf(stderr, "cpt_perfbench: check failed: %s\n", e.c_str());
    return rep.errors.empty() ? 0 : 3;
}

}  // namespace
}  // namespace cpt::perfbench

int main(int argc, char** argv) {
    try {
        return cpt::perfbench::run(cpt::util::Options(argc, argv));
    } catch (const std::exception& e) {
        std::fprintf(stderr, "cpt_perfbench: %s\n", e.what());
        return 1;
    }
}
