// cpt-serve: a continuous-batching generation service over the ModelHub.
//
// The paper's operational architecture (§4.5, Fig. 4) is release-and-consume:
// operators publish per-(device, hour) model packages; downstream users
// synthesize traffic on demand. This server is the consume side as a
// long-running service. Each requested slice gets an Engine — a worker thread
// driving a Sampler::SlotBatch — and requests are decomposed into per-stream
// jobs that are admitted into decoder slots as earlier streams finish
// (continuous batching: the [B, T, d_token] forward stays full under mixed
// stream lengths instead of draining to a tail of stragglers).
//
// Service machinery around the scheduler core:
//   * bounded admission queue per slice — a full queue rejects with
//     Status::kQueueFull (backpressure instead of unbounded memory);
//   * per-request deadlines — expired requests are evicted at the next
//     compaction and answered with Status::kDeadline plus whatever streams
//     completed in time;
//   * graceful drain — drain() stops admission, finishes queued and in-flight
//     work, and joins the engine threads (wired to SIGTERM by cpt_serve);
//   * stats surface — per-slice streams/s and tokens/s, queue depth, and
//     p50/p95/p99 request latency, exported as JSON.
//
// Determinism: a request with deterministic = true uses Rng(seed).fork(i) for
// stream i and labels it "<ue_prefix>-%06zu" % i. Sampler::generate_batch
// admits exactly those RNGs into one SlotBatch, and the engine runs the same
// SlotBatch step, so a single-slice, single-client run reproduces it
// byte-for-byte (pinned by tests/serve_test.cpp) — admission timing cannot
// perturb stream content (see Sampler::SlotBatch).
//
// Engines decode one token per row per step, as every SlotBatch does.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/model_hub.hpp"
#include "protocol.hpp"
#include "service.hpp"
#include "util/stats.hpp"
#include "util/sync.hpp"

namespace cpt::serve {

struct ServeConfig {
    std::string hub_dir;            // ModelHub release directory
    core::CptGptConfig model;       // architecture of the published checkpoints
    std::size_t slot_capacity = 32;     // decoder rows per slice engine
    std::size_t queue_capacity = 64;    // pending requests per slice (backpressure)
    std::uint32_t default_deadline_ms = 30000;
    bool nearest_hour_fallback = false;  // serve the nearest published hour
    bool deterministic = false;          // force deterministic mode on every request
    std::uint64_t server_seed = 0x5eedULL;  // base RNG for non-deterministic requests
    // Decode precision for every slice (DESIGN.md §12). Quantized checkpoints
    // always serve int8 regardless (their fp32 weights never existed).
    nn::Precision precision = nn::Precision::kFp32;
};

class Server : public Service {
public:
    explicit Server(ServeConfig config);
    ~Server() override;  // drains if the caller has not

    Server(const Server&) = delete;
    Server& operator=(const Server&) = delete;

    // Non-blocking in-process entry point (the epoll transport lands here):
    // enqueues the request on its slice engine; `done` fires from the engine
    // worker on completion, deadline, or rejection (or synchronously for
    // requests rejected before admission).
    void generate_async(const GenerateRequest& request, Done done) override;

    // Blocking wrapper (the in-process client):
    // enqueues and waits for completion, deadline, or rejection.
    GenerateResponse generate(const GenerateRequest& request) override;

    // Current service stats as a JSON object (see DESIGN.md §10 for schema).
    std::string stats_json() const override;

    // Liveness snapshot: drain flag, live engine count, queued + in-flight
    // requests, lifetime completed streams.
    HealthInfo health() const override;

    // Stops admission (subsequent generate() calls get kShuttingDown),
    // completes all queued and in-flight requests, and joins engine threads.
    // Idempotent.
    void drain();

    const ServeConfig& config() const { return config_; }

private:
    class Engine;

    // Per-slice counters an engine reports; retained across drain() so the
    // final stats_json() (printed by the daemon on SIGTERM) keeps its totals.
    struct SliceStats {
        trace::DeviceType device = trace::DeviceType::kPhone;
        int hour = 0;
        nn::Precision precision = nn::Precision::kFp32;  // active decode mode
        std::uint64_t streams = 0;
        std::uint64_t tokens = 0;
        std::uint64_t requests_done = 0;
        std::uint64_t requests_timeout = 0;
        std::uint64_t requests_rejected = 0;
        std::size_t queue_depth = 0;
        // Decode-stage attribution folded from Sampler::StageTimes: seconds
        // spent in the KV-cached decode across `steps` step() calls.
        double decode_seconds = 0.0;
        std::uint64_t steps = 0;
        util::LatencyHistogram latency;
    };

    Engine* engine_for(trace::DeviceType device, int hour, std::string* error)
        CPT_EXCLUDES(engines_mutex_);
    Engine* route(const GenerateRequest& request, GenerateResponse* reject)
        CPT_EXCLUDES(engines_mutex_);

    ServeConfig config_;
    core::ModelHub hub_;
    mutable util::Mutex engines_mutex_;
    // key: device * 24 + hour
    std::map<int, std::unique_ptr<Engine>> engines_ CPT_GUARDED_BY(engines_mutex_);
    // engines retired by drain()
    std::vector<SliceStats> drained_stats_ CPT_GUARDED_BY(engines_mutex_);
    bool draining_ CPT_GUARDED_BY(engines_mutex_) = false;
    std::uint64_t start_ns_ = 0;  // steady-clock epoch for rate accounting
};

}  // namespace cpt::serve
