// Serving-path throughput over the SlotBatch decode loop cpt-serve's engines
// run: a mixed-length workload through the continuous scheduler (finished
// slots are refilled at the next step boundary, so the batch stays full of
// real work), in fp32 and through the int8 weight-quantized path. The
// workload is bimodal (many short streams, a few near-context-length ones).
// The untrained model's stop head is biased hard toward "continue" so stream
// lengths are exactly the per-stream caps and both precisions decode the
// same token count. Stream completion latency is measured from bench start
// (all requests are pending at t0).
//
// Static batching, a thread-per-connection listener and speculative decode
// under the scheduler are not re-measured: bench_results/BENCH_serve.json
// records them (continuous 8.1x over padded drain-then-refill; epoll 256
// connections against the threaded 64; its spec_sweep rows).
//
// Two TCP-level sections (DESIGN.md §15) run the real Server behind the
// epoll listener:
//
//   * transport ladder: 16/64/256 concurrent connections under a fixed
//     open-loop offered load, reporting the most connections that still meet
//     the SLO;
//   * open-loop sweep: offered rates at fractions of the measured
//     closed-loop capacity, reporting p50/p95/p99 from the scheduled arrival
//     and the max rate that still meets the SLO.
//
// Emits BENCH_serve.json next to the binary.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <thread>
#include <vector>

#include "core/model.hpp"
#include "core/model_hub.hpp"
#include "core/sampler.hpp"
#include "core/tokenizer.hpp"
#include "serve/event_loop.hpp"
#include "serve/loadgen.hpp"
#include "serve/server.hpp"
#include "trace/synthetic.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace cpt;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kSlotCapacity = 32;
constexpr std::size_t kStreams = 256;
constexpr std::size_t kShortLen = 4;
constexpr std::size_t kLongLen = 120;
constexpr std::size_t kLongEvery = 11;  // ~1 in 11 streams is long (24 of 256)

struct Job {
    util::Rng rng{1};
    std::size_t max_len = 0;
    std::size_t idx = 0;
};

std::deque<Job> make_workload() {
    std::deque<Job> jobs;
    util::Rng root(42);
    for (std::size_t i = 0; i < kStreams; ++i) {
        jobs.push_back({root.fork(i), i % kLongEvery == 0 ? kLongLen : kShortLen, i});
    }
    return jobs;
}

void admit_job(core::Sampler::SlotBatch& batch, const Job& job) {
    core::Sampler::SlotBatch::AdmitParams params;
    params.max_len = job.max_len;
    char id[32];
    std::snprintf(id, sizeof(id), "bench-%06zu", job.idx);
    batch.admit(job.rng, id, job.idx, params);
}

struct RunResult {
    std::size_t streams = 0;
    std::size_t tokens = 0;
    std::size_t steps = 0;
    std::size_t row_steps = 0;  // decoded rows summed over steps
    double seconds = 0.0;
    double streams_per_sec = 0.0;
    double tokens_per_sec = 0.0;
    util::LatencyHistogram latency;  // per-stream completion time since t0
};

// Folds the newly finished entries of `fin` (from `*seen` on) into the
// latency histogram and the stream counters.
void absorb_finished(RunResult& r, const std::vector<core::Sampler::SlotBatch::Finished>& fin,
                     std::size_t* seen, Clock::time_point t0) {
    const double now = std::chrono::duration<double>(Clock::now() - t0).count();
    for (; *seen < fin.size(); ++*seen) {
        const auto& f = fin[*seen];
        ++r.streams;
        r.tokens += f.stream.events.size();
        r.latency.record(now);
    }
}

RunResult finalize(RunResult r, Clock::time_point t0) {
    r.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
    r.streams_per_sec = static_cast<double>(r.streams) / r.seconds;
    r.tokens_per_sec = static_cast<double>(r.tokens) / r.seconds;
    return r;
}

// Continuous batching: at every step boundary, fill free slots with the first
// pending job whose length cap fits the remaining shared context.
RunResult run_continuous(const core::Sampler& sampler) {
    auto jobs = make_workload();
    auto batch = sampler.make_slot_batch(kSlotCapacity);
    std::vector<core::Sampler::SlotBatch::Finished> fin;
    std::size_t seen = 0;
    RunResult r;
    const auto t0 = Clock::now();
    while (!jobs.empty() || batch.live() > 0) {
        bool admitted = true;
        while (batch.free_slots() > 0 && admitted) {
            admitted = false;
            for (auto it = jobs.begin(); it != jobs.end(); ++it) {
                if (it->max_len <= batch.admissible_len()) {
                    admit_job(batch, *it);
                    jobs.erase(it);
                    admitted = true;
                    break;
                }
            }
        }
        if (batch.live() == 0) continue;  // empty batch rewinds the context; re-admit
        r.row_steps += batch.live();
        batch.step(fin);
        ++r.steps;
        absorb_finished(r, fin, &seen, t0);
    }
    return finalize(r, t0);
}

void print_row(const char* name, const RunResult& r) {
    const auto pct = r.latency.percentiles();
    std::printf("%-18s %zu streams (%zu tokens) in %.3f s over %4zu steps (%6zu row-steps) "
                "-> %8.1f streams/s  %9.1f tokens/s  latency p50 %.3fs p95 %.3fs p99 %.3fs\n",
                name, r.streams, r.tokens, r.seconds, r.steps, r.row_steps, r.streams_per_sec,
                r.tokens_per_sec, pct.p50, pct.p95, pct.p99);
}

void json_row(std::FILE* f, const char* name, const RunResult& r, bool last) {
    const auto pct = r.latency.percentiles();
    std::fprintf(f,
                 "    {\"mode\": \"%s\", \"streams\": %zu, \"tokens\": %zu, "
                 "\"steps\": %zu, \"row_steps\": %zu, \"seconds\": %.4f, "
                 "\"streams_per_sec\": %.1f, \"tokens_per_sec\": %.1f, "
                 "\"latency_seconds\": {\"p50\": %.4f, \"p95\": %.4f, \"p99\": %.4f, "
                 "\"mean\": %.4f}}%s\n",
                 name, r.streams, r.tokens, r.steps, r.row_steps, r.seconds, r.streams_per_sec,
                 r.tokens_per_sec, pct.p50, pct.p95, pct.p99, r.latency.mean(), last ? "" : ",");
}

// ---- TCP transport ladder + open-loop sweep (DESIGN.md §15) ----------------
//
// The epoll listener fronts a real Server under open-loop offered load. A
// point is "sustained" when every request succeeded and p99 latency —
// measured from the scheduled arrival, so queueing the server caused is
// charged to it — met the SLO.

constexpr double kSloP99Seconds = 0.25;  // serving SLO for "sustained"
constexpr double kLadderRps = 200.0;     // fixed offered load for the ladder
constexpr std::size_t kLadder[] = {16, 64, 256};

struct TransportPoint {
    std::size_t connections = 0;
    serve::LoadgenResult r;
};

struct OpenPoint {
    double fraction = 0.0;     // of closed-loop capacity
    double offered_rps = 0.0;  // fraction * capacity
    serve::LoadgenResult r;
};

serve::LoadgenResult run_load(std::uint16_t port, std::size_t conns, std::size_t requests,
                              double rate, std::uint64_t seed) {
    serve::LoadgenConfig lcfg;
    lcfg.port = port;
    lcfg.connections = conns;
    lcfg.requests = requests;
    lcfg.rate = rate;
    lcfg.seed = seed;
    lcfg.hour_of_day = 9;
    lcfg.count = 1;  // one short stream per request: transport cost dominates
    lcfg.max_stream_len = 8;
    lcfg.ue_prefix = "bench";
    return serve::run_loadtest(lcfg);
}

std::vector<TransportPoint> run_ladder(std::uint16_t port, std::uint64_t seed) {
    std::vector<TransportPoint> pts;
    for (const std::size_t conns : kLadder) {
        TransportPoint p;
        p.connections = conns;
        p.r = run_load(port, conns, std::max<std::size_t>(128, conns * 2), kLadderRps, seed++);
        pts.push_back(std::move(p));
    }
    return pts;
}

std::size_t sustained_connections(const std::vector<TransportPoint>& pts) {
    std::size_t best = 0;
    for (const auto& p : pts) {
        if (p.r.failed == 0 && p.r.latency.percentiles().p99 <= kSloP99Seconds) {
            best = std::max(best, p.connections);
        }
    }
    return best;
}

void print_transport_row(const TransportPoint& p) {
    const auto pct = p.r.latency.percentiles();
    std::printf("  epoll %4zu conns: %4zu ok %4zu failed   p50 %.4fs  p99 %.4fs\n", p.connections,
                p.r.ok, p.r.failed, pct.p50, pct.p99);
}

void json_transport_row(std::FILE* f, const TransportPoint& p, bool last) {
    const auto pct = p.r.latency.percentiles();
    std::fprintf(f,
                 "      {\"transport\": \"epoll\", \"connections\": %zu, \"ok\": %zu, "
                 "\"failed\": %zu, \"p50\": %.4f, \"p99\": %.4f}%s\n",
                 p.connections, p.r.ok, p.r.failed, pct.p50, pct.p99, last ? "" : ",");
}

void json_open_row(std::FILE* f, const OpenPoint& p, bool last) {
    const auto pct = p.r.latency.percentiles();
    std::fprintf(f,
                 "      {\"fraction\": %.2f, \"offered_rps\": %.1f, \"achieved_rps\": %.1f, "
                 "\"ok\": %zu, \"failed\": %zu, \"p50\": %.4f, \"p95\": %.4f, \"p99\": %.4f}%s\n",
                 p.fraction, p.offered_rps, p.r.achieved_rps, p.r.ok, p.r.failed, pct.p50,
                 pct.p95, pct.p99, last ? "" : ",");
}

}  // namespace

int main() {
    trace::SyntheticWorldConfig wcfg;
    wcfg.population = {60, 0, 0};
    wcfg.seed = 7;
    const auto world = trace::SyntheticWorldGenerator(wcfg).generate();
    const auto tok = core::Tokenizer::fit(world);

    // Flagship decode shape, so the schedule and precision comparisons run
    // at the cost profile a serving engine pays.
    util::Rng init(11);
    core::CptGptConfig cfg;
    cfg.d_model = 128;
    cfg.heads = 4;
    cfg.mlp_hidden = 1024;
    cfg.blocks = 2;
    cfg.max_seq_len = 128;
    cfg.head_hidden = 128;
    core::CptGpt model(tok, cfg, init);

    // Bias the stop head hard toward "continue" so every stream runs to its
    // per-job cap: lengths are then exact, and both precisions process the
    // same token count.
    for (const auto& np : model.named_parameters("cptgpt.")) {
        if (np.name == "cptgpt.stop_head.fc2.bias") {
            auto bias = np.param->value.data();
            bias[0] = 8.0f;   // continue
            bias[1] = -8.0f;  // stop
        }
    }
    // Quantize after the bias edit so the int8 sampler sees the same stop
    // behaviour (QuantMlp snapshots weights and biases at quantize time).
    model.quantize_weights();

    core::SamplerConfig scfg;
    scfg.batch = kSlotCapacity;
    const core::Sampler sampler(model, tok, world.initial_event_distribution(), scfg);
    core::SamplerConfig qcfg = scfg;
    qcfg.precision = nn::Precision::kInt8W8A32;
    const core::Sampler sampler_int8(model, tok, world.initial_event_distribution(), qcfg);

    std::printf("bench_serve: %zu streams (%zu short len=%zu, %zu long len=%zu), "
                "slot capacity %zu, threads %zu\n",
                kStreams, kStreams - (kStreams + kLongEvery - 1) / kLongEvery, kShortLen,
                (kStreams + kLongEvery - 1) / kLongEvery, kLongLen, kSlotCapacity,
                util::configured_threads());

    run_continuous(sampler);  // warm-up
    const RunResult cont = run_continuous(sampler);

    // Same continuous schedule through the int8 weight-quantized decode path
    // with fp16 KV (DESIGN.md §12). The forced stop bias caps every stream's
    // length exactly, so both precisions decode the same token count — only
    // the kernel path differs.
    run_continuous(sampler_int8);  // warm-up
    const RunResult cont_int8 = run_continuous(sampler_int8);
    const double int8_speedup = cont_int8.streams_per_sec / cont.streams_per_sec;
    const std::size_t weights_int8_bytes = model.quantized_weights().weight_bytes();
    const std::size_t kv_fp32_bytes = model.make_decoder(kSlotCapacity).kv_bytes();
    const std::size_t kv_fp16_bytes =
        model.make_decoder(kSlotCapacity, nn::Precision::kInt8W8A32).kv_bytes();
    std::size_t weights_fp32_bytes = 0;
    for (const auto& np : model.named_parameters("cptgpt.")) {
        const auto& shape = np.param->value.shape();
        if (shape.size() == 2 && np.name.size() > 7 &&
            np.name.compare(np.name.size() - 7, 7, ".weight") == 0) {
            weights_fp32_bytes += nn::shape_numel(shape) * sizeof(float);
        }
    }

    print_row("continuous", cont);
    print_row("continuous_int8", cont_int8);
    std::printf("speedup (continuous int8 / fp32): %.2fx\n", int8_speedup);
    std::printf("memory: weights fp32 %zu B -> int8 %zu B; kv fp32 %zu B -> fp16 %zu B "
                "(capacity %zu)\n",
                weights_fp32_bytes, weights_int8_bytes, kv_fp32_bytes, kv_fp16_bytes,
                kSlotCapacity);
    if (cont.streams != kStreams || cont_int8.streams != kStreams ||
        cont_int8.tokens != cont.tokens) {
        std::fprintf(stderr,
                     "bench_serve: precisions disagree on the workload "
                     "(fp32 %zu/%zu, int8 %zu/%zu)\n",
                     cont.streams, cont.tokens, cont_int8.streams, cont_int8.tokens);
        return 1;
    }

    // ---- TCP transport ladder + open-loop sweep ----------------------------
    // The 256-connection points need client + server fds past the usual 1024
    // soft cap; raise it to the hard cap.
    struct rlimit nofile;
    if (::getrlimit(RLIMIT_NOFILE, &nofile) == 0 && nofile.rlim_cur < nofile.rlim_max) {
        nofile.rlim_cur = nofile.rlim_max;
        ::setrlimit(RLIMIT_NOFILE, &nofile);
    }

    // Publish the (stop-biased) model into a scratch hub so the real Server —
    // hub load, admission queue, engine threads — is what the listener fronts.
    const std::string hub_dir = (std::filesystem::temp_directory_path() /
                                 ("cpt_bench_serve_hub_" + std::to_string(::getpid())))
                                    .string();
    std::filesystem::remove_all(hub_dir);
    core::ModelHub(hub_dir).publish(model, tok, world.initial_event_distribution(),
                                    trace::DeviceType::kPhone, 9);
    serve::ServeConfig serve_cfg;
    serve_cfg.hub_dir = hub_dir;
    serve_cfg.model = cfg;
    serve_cfg.slot_capacity = kSlotCapacity;
    serve_cfg.queue_capacity = 1024;  // 256 concurrent conns must not trip kQueueFull
    serve::Server server(serve_cfg);

    std::vector<TransportPoint> epoll_pts;
    serve::LoadgenResult closed_cap;
    std::vector<OpenPoint> open_pts;
    {
        serve::TcpServer srv(server, "127.0.0.1", 0);
        std::thread acceptor([&srv] { srv.serve_forever(); });
        epoll_pts = run_ladder(srv.port(), 2000);

        // Closed-loop capacity: 16 connections each keeping one request
        // outstanding. achieved_rps is the operating point the open-loop
        // sweep scales against.
        closed_cap = run_load(srv.port(), 16, 256, 0.0, 3000);
        std::uint64_t seed = 4000;
        for (const double fraction : {0.5, 0.7, 0.85, 1.0}) {
            OpenPoint p;
            p.fraction = fraction;
            p.offered_rps = closed_cap.achieved_rps * fraction;
            const auto n = std::clamp<std::size_t>(static_cast<std::size_t>(p.offered_rps),
                                                   std::size_t{128}, std::size_t{600});
            p.r = run_load(srv.port(), 32, n, p.offered_rps, seed++);
            open_pts.push_back(std::move(p));
        }
        srv.stop();
        acceptor.join();
    }
    server.drain();
    std::filesystem::remove_all(hub_dir);

    const std::size_t epoll_sustained = sustained_connections(epoll_pts);
    double max_sustainable_rps = 0.0;
    for (const auto& p : open_pts) {
        if (p.r.failed == 0 && p.r.latency.percentiles().p99 <= kSloP99Seconds) {
            max_sustainable_rps = std::max(max_sustainable_rps, p.offered_rps);
        }
    }

    std::printf("transport ladder (open loop, %.0f req/s offered, SLO p99 <= %.0f ms):\n",
                kLadderRps, kSloP99Seconds * 1e3);
    for (const auto& p : epoll_pts) print_transport_row(p);
    std::printf("sustained connections: epoll %zu\n", epoll_sustained);
    std::printf("open-loop sweep (closed-loop capacity %.1f req/s over 16 conns):\n",
                closed_cap.achieved_rps);
    for (const auto& p : open_pts) {
        const auto pct = p.r.latency.percentiles();
        std::printf("  %.2fx -> %7.1f req/s offered: %4zu ok %3zu failed   p50 %.4fs  "
                    "p99 %.4fs\n",
                    p.fraction, p.offered_rps, p.r.ok, p.r.failed, pct.p50, pct.p99);
    }
    std::printf("max sustainable rate at SLO: %.1f req/s\n", max_sustainable_rps);

    const char* path = "BENCH_serve.json";
    std::FILE* f = std::fopen(path, "w");
    if (!f) {
        std::fprintf(stderr, "bench_serve: cannot write %s\n", path);
        return 1;
    }
    std::fprintf(f,
                 "{\n  \"bench\": \"serve\",\n"
                 "  \"model\": {\"d_model\": %zu, \"mlp_hidden\": %zu, \"blocks\": %zu, "
                 "\"max_seq_len\": %zu},\n"
                 "  \"workload\": {\"streams\": %zu, \"short_len\": %zu, \"long_len\": %zu, "
                 "\"slot_capacity\": %zu},\n  \"rows\": [\n",
                 cfg.d_model, cfg.mlp_hidden, cfg.blocks, cfg.max_seq_len, kStreams, kShortLen,
                 kLongLen, kSlotCapacity);
    json_row(f, "continuous", cont, false);
    json_row(f, "continuous_int8", cont_int8, true);
    std::fprintf(f,
                 "  ],\n  \"memory\": {\"weights_fp32_bytes\": %zu, \"weights_int8_bytes\": %zu, "
                 "\"kv_fp32_bytes\": %zu, \"kv_fp16_bytes\": %zu, \"kv_capacity\": %zu},\n"
                 "  \"int8_speedup\": %.3f,\n",
                 weights_fp32_bytes, weights_int8_bytes, kv_fp32_bytes, kv_fp16_bytes,
                 kSlotCapacity, int8_speedup);
    std::fprintf(f,
                 "  \"transport\": {\n"
                 "    \"offered_rps\": %.1f, \"slo_p99_seconds\": %.3f,\n"
                 "    \"rows\": [\n",
                 kLadderRps, kSloP99Seconds);
    for (std::size_t i = 0; i < epoll_pts.size(); ++i) {
        json_transport_row(f, epoll_pts[i], i + 1 == epoll_pts.size());
    }
    std::fprintf(f,
                 "    ],\n"
                 "    \"sustained_connections\": {\"epoll\": %zu}\n  },\n",
                 epoll_sustained);
    std::fprintf(f,
                 "  \"open_loop\": {\n"
                 "    \"closed_loop_capacity_rps\": %.1f, \"slo_p99_seconds\": %.3f,\n"
                 "    \"rows\": [\n",
                 closed_cap.achieved_rps, kSloP99Seconds);
    for (std::size_t i = 0; i < open_pts.size(); ++i) {
        json_open_row(f, open_pts[i], i + 1 == open_pts.size());
    }
    std::fprintf(f, "    ],\n    \"max_sustainable_rps\": %.1f\n  }\n}\n", max_sustainable_rps);
    std::fclose(f);
    std::printf("wrote %s\n", path);
    return 0;
}
