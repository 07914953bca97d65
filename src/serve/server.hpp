// cpt-serve: a continuous-batching generation service over the ModelHub.
//
// The paper's operational architecture (§4.5, Fig. 4) is release-and-consume:
// operators publish per-(device, hour) model packages; downstream users
// synthesize traffic on demand. This server is the consume side as a
// long-running service. Each requested slice loads its package and Sampler
// once and decodes on up to W lanes, W = util::configured_threads() read when
// the Server is built. A lane is a worker thread driving its own
// Sampler::SlotBatch: requests are decomposed into per-stream jobs that are
// admitted into decoder slots as earlier streams finish (continuous
// batching: the [B, T, d_token] forward stays full under mixed stream lengths
// instead of draining to a tail of stragglers).
//
// Placement: a request goes whole to one lane of its slice — an idle lane
// (nothing queued or in flight) if there is one, else a new lane while the
// slice has fewer than W, else the lane with the fewest queued plus in-flight
// requests (lowest index on ties). So concurrent requests for one busy slice
// decode on separate cores, while a slice asked for one request at a time
// keeps a single lane.
//
// Service machinery around the scheduler core:
//   * bounded admission per slice — once queue_capacity requests are queued
//     or in flight over its lanes, a new one is rejected with
//     Status::kQueueFull (backpressure instead of unbounded memory);
//   * per-request deadlines — expired requests are evicted at the lane's
//     next compaction and answered with Status::kDeadline plus whatever
//     streams completed in time;
//   * graceful drain — drain() stops admission, finishes queued and in-flight
//     work on every lane, and joins the lane threads (wired to SIGTERM by
//     cpt_serve);
//   * stats surface — per-slice streams/s and tokens/s (summed over its
//     lanes), lane count, queue depth, and p50/p95/p99 request latency,
//     exported as JSON.
//
// Determinism: a request with deterministic = true uses Rng(seed).fork(i) for
// stream i and labels it "<ue_prefix>-%06zu" % i. Sampler::generate_batch
// admits exactly those RNGs into one SlotBatch, and the lane runs the same
// SlotBatch step, so the response reproduces it byte-for-byte whichever lane
// serves it and whatever shares that lane (pinned by tests/serve_test.cpp) —
// admission timing cannot perturb stream content (see Sampler::SlotBatch).
// A non-deterministic request decodes stream i from fork i of one draw of
// its slice's server RNG, taken under the slice's lock at submission, so its
// streams differ from those of every other request on any lane.
//
// Lanes decode one token per row per step, as every SlotBatch does.
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
    std::size_t slot_capacity = 32;     // decoder rows per slice lane
    std::size_t queue_capacity = 64;    // pending requests per slice (backpressure)
    std::uint32_t default_deadline_ms = 30000;
    bool nearest_hour_fallback = false;  // serve the nearest published hour
    bool deterministic = false;          // force deterministic mode on every request
    std::uint64_t server_seed = 0x5eedULL;  // base RNG for non-deterministic requests
};

class Server : public Service {
public:
    explicit Server(ServeConfig config);
    ~Server() override;  // drains if the caller has not

    Server(const Server&) = delete;
    Server& operator=(const Server&) = delete;

    // Non-blocking in-process entry point (the epoll transport lands here):
    // places the request on a lane of its slice; `done` fires from the lane
    // worker on completion or deadline (or synchronously for requests
    // rejected before admission).
    void generate_async(const GenerateRequest& request, Done done) override;

    // Current service stats as a JSON object (see DESIGN.md §10 for schema).
    std::string stats_json() const override;

    // Liveness snapshot: drain flag, live slice count (HealthInfo::engines),
    // queued + in-flight requests, lifetime completed streams.
    HealthInfo health() const override;

    // Stops admission (subsequent generate() calls get kShuttingDown),
    // completes all queued and in-flight requests, and joins every lane
    // thread. Idempotent.
    void drain();

    const ServeConfig& config() const { return config_; }

private:
    class Lane;
    class Slice;

    // Per-slice counters, summed over the slice's lanes; retained across
    // drain() so the final stats_json() (printed by the daemon on SIGTERM)
    // keeps its totals.
    struct SliceStats {
        trace::DeviceType device = trace::DeviceType::kPhone;
        int hour = 0;
        std::uint64_t streams = 0;
        std::uint64_t tokens = 0;
        std::uint64_t requests_done = 0;
        std::uint64_t requests_timeout = 0;
        std::uint64_t requests_rejected = 0;
        std::size_t queue_depth = 0;
        std::size_t lanes = 0;
        // Decode-stage attribution folded from Sampler::StageTimes: seconds
        // spent in the KV-cached decode across `steps` step() calls.
        double decode_seconds = 0.0;
        std::uint64_t steps = 0;
        util::LatencyHistogram latency;
    };

    // The slice, loaded on first use; on failure fills `reject`
    // (kShuttingDown while draining, kNoModel for an unpublished slice) and
    // returns nullptr.
    Slice* slice_for(trace::DeviceType device, int hour, GenerateResponse* reject)
        CPT_EXCLUDES(slices_mutex_);
    Slice* route(const GenerateRequest& request, GenerateResponse* reject)
        CPT_EXCLUDES(slices_mutex_);

    ServeConfig config_;
    core::ModelHub hub_;
    // W: lanes per slice. Read once here, so a caller that later narrows the
    // global pool (perfbench does while serving) does not narrow serving.
    std::size_t lanes_per_slice_;
    mutable util::Mutex slices_mutex_;
    // key: device * 24 + hour
    std::map<int, std::unique_ptr<Slice>> slices_ CPT_GUARDED_BY(slices_mutex_);
    // slices retired by drain()
    std::vector<SliceStats> drained_stats_ CPT_GUARDED_BY(slices_mutex_);
    bool draining_ CPT_GUARDED_BY(slices_mutex_) = false;
    std::uint64_t start_ns_ = 0;  // steady-clock epoch for rate accounting
};

}  // namespace cpt::serve
