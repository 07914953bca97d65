// cpt-router: shards the (device, hour) slice space across cpt-serve
// backends (DESIGN.md §15).
//
// A single backend keeps every requested slice's model resident — at
// production slice counts (3 devices × 24 hours) that exceeds one box. The
// router partitions slices with a consistent hash ring (virtual nodes), so
// each backend only ever loads its share, and:
//
//   * health-checks every backend on a fixed cadence; a backend that fails
//     `down_after_failures` consecutive probes (or reports draining) leaves
//     the ring, and rejoins when probes succeed again. Ring changes move
//     only the slices owned by the changed node — everything else keeps its
//     backend-resident engine warm (pinned by tests/router_test.cpp);
//   * replicates hot slices under load: when the primary owner's in-flight
//     count for a slice crosses `spill_threshold`, requests spill to the
//     next distinct ring owner (which spins up its own engine for the slice);
//   * fails over without dropping in-flight requests: a connect failure or a
//     death before the first response byte is retried (bounded, deterministic
//     backoff) against the next candidate; a death mid-response is NEVER
//     retried — the client gets Status::kUpstream and decides (the response
//     may have had effects client-side).
//
// Determinism is unaffected: the router only picks *which* backend runs a
// request; a deterministic request returns byte-identical streams from any
// backend because stream content is a pure function of (seed, slice model)
// — see DESIGN.md §15.
//
// Router implements Service, so the same TcpServer event loop fronts it and
// clients cannot tell a router from a backend.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "client.hpp"
#include "service.hpp"
#include "util/backoff.hpp"
#include "util/sync.hpp"

namespace cpt::serve {

// FNV-1a 64-bit — stable, dependency-free string hash (the ring mixes it
// further before placing a key or node point).
std::uint64_t fnv1a64(std::string_view s);

// Consistent hash ring with virtual nodes. Each node is hashed to `vnodes`
// points on a u64 circle; a key belongs to the first node point at or after
// its own hash. Both hashes are fnv1a64 followed by splitmix64's finaliser,
// so similar keys (phone/h0..h23) spread over the backends. Adding a node
// steals only the key ranges that land on its points (≈K/n of the keyspace);
// removing one releases only its own ranges — no other key moves (the
// stability property tests pin).
class HashRing {
public:
    explicit HashRing(std::size_t vnodes = 64);

    void add(const std::string& node);
    void remove(const std::string& node);
    bool contains(const std::string& node) const;
    bool empty() const { return points_.empty(); }
    std::size_t nodes() const { return node_count_; }

    // Owning node for `key`; empty string when the ring is empty.
    std::string owner(std::string_view key) const;

    // Up to `n` distinct nodes clockwise from the key's position, owner
    // first — the failover/spill candidate order.
    std::vector<std::string> owners(std::string_view key, std::size_t n) const;

private:
    std::size_t vnodes_;
    std::size_t node_count_ = 0;
    std::map<std::uint64_t, std::string> points_;  // hash point -> node
};

// One failover/spill candidate as seen at routing time.
struct RouteCandidate {
    bool available = false;          // up, not draining
    std::size_t slice_inflight = 0;  // this node's in-flight count for the slice
};

// Pure routing decision (unit-testable without sockets): returns the index
// of the candidate to try first. The primary (index 0) wins unless its
// slice in-flight count has reached `spill_threshold` and a later available
// candidate is strictly less loaded on the slice. Unavailable candidates are
// skipped; returns candidates.size() when none is available.
std::size_t plan_route(const std::vector<RouteCandidate>& candidates,
                       std::size_t spill_threshold);

struct RouterConfig {
    std::vector<std::string> backends;  // "host:port" (IPv4)
    std::size_t vnodes = 64;
    std::size_t forwarders = 8;         // forwarding threads (max concurrent upstreams)
    std::size_t queue_capacity = 256;   // pending requests before kQueueFull
    int health_interval_ms = 500;       // probe cadence
    int health_timeout_ms = 2000;       // probe I/O bound
    int io_timeout_ms = 0;              // generate round-trip bound (0 = none)
    int down_after_failures = 2;        // consecutive probe failures -> out of ring
    std::size_t replicas = 2;           // candidates per slice (primary + spill/failover)
    std::size_t spill_threshold = 8;    // slice in-flight on primary before spilling
    util::Backoff::Policy retry;        // between failover attempts
};

class Router : public Service {
public:
    explicit Router(RouterConfig config);
    ~Router() override;  // drains if the caller has not

    Router(const Router&) = delete;
    Router& operator=(const Router&) = delete;

    void generate_async(const GenerateRequest& request, Done done) override;
    std::string stats_json() const override;
    // ok when at least one backend is up; `engines` carries the healthy
    // backend count.
    HealthInfo health() const override;

    // Stops admission, finishes queued and in-flight forwards, joins the
    // forwarder and health threads. Idempotent.
    void drain();

    // Current ring owner of a slice ("host:port"; empty when every backend
    // is down). For tests and cpt_router --print-owner.
    std::string owner_of(trace::DeviceType device, int hour) const;

    // Runs one synchronous health pass over all backends (tests and startup).
    void check_backends_now();

    const RouterConfig& config() const { return config_; }

private:
    struct Backend {
        std::string name;  // "host:port"
        std::string host;
        std::uint16_t port = 0;
        bool up = false;
        bool draining = false;
        int consecutive_failures = 0;
        std::size_t inflight = 0;
        std::map<std::string, std::size_t> slice_inflight;  // slice -> live forwards
        std::uint64_t forwarded = 0;
        std::uint64_t probe_failures = 0;
        HealthInfo last_health;
    };

    struct Job {
        GenerateRequest req;
        Done done;
    };

    // Probes one backend (no lock held) and folds the verdict into its
    // state; logs up/down transitions.
    void probe(const std::string& name);
    void forwarder_loop();
    void health_loop();
    void forward(Job&& job) CPT_EXCLUDES(mu_);
    GenerateResponse roundtrip(const std::string& name, const std::string& host,
                               std::uint16_t port, const GenerateRequest& req);

    RouterConfig config_;

    mutable util::Mutex mu_;
    util::CondVar work_cv_;    // queue_ gained a job / stopping
    util::CondVar idle_cv_;    // a forward finished (drain waits on this)
    util::CondVar health_cv_;  // early wake for the probe cadence on drain
    HashRing ring_ CPT_GUARDED_BY(mu_);
    std::map<std::string, Backend> backends_ CPT_GUARDED_BY(mu_);
    std::deque<Job> queue_ CPT_GUARDED_BY(mu_);
    std::size_t active_forwards_ CPT_GUARDED_BY(mu_) = 0;
    bool stopping_ CPT_GUARDED_BY(mu_) = false;
    std::uint64_t failovers_ CPT_GUARDED_BY(mu_) = 0;
    std::uint64_t spills_ CPT_GUARDED_BY(mu_) = 0;
    std::uint64_t upstream_errors_ CPT_GUARDED_BY(mu_) = 0;
    std::uint64_t requests_done_ CPT_GUARDED_BY(mu_) = 0;

    std::uint64_t start_ns_ = 0;
    std::vector<std::thread> forwarders_;
    std::thread health_thread_;
};

}  // namespace cpt::serve
