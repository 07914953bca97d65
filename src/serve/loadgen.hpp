// Load generation against a cpt-serve/cpt-router endpoint, shared by the
// serve_loadtest CLI and perfbench.
//
// Two modes:
//
//   * closed loop (rate == 0): `connections` workers each keep exactly one
//     request outstanding — throughput measures capacity, but latency hides
//     queueing (the classic coordinated-omission trap: a slow server slows
//     the arrival rate down with it);
//   * open loop (rate > 0): arrivals follow a deterministic seeded Poisson
//     schedule fixed before the run. Latency is measured from the scheduled
//     arrival time, not the actual send, so a server that falls behind pays
//     for the queueing delay it caused. The schedule is a pure function of
//     (rate, n, seed) — two runs at the same operating point see identical
//     offered load.
//
// Workers reconnect with bounded backoff on transport errors, so a backend
// restart or router failover mid-run costs failed requests only while the
// endpoint is actually unreachable.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "protocol.hpp"
#include "util/stats.hpp"

namespace cpt::serve {

// Cumulative arrival offsets (seconds from run start) for `n` Poisson
// arrivals at `rate` per second: gaps are i.i.d. Exponential(rate) drawn
// from Rng(seed). Deterministic and platform-stable.
std::vector<double> poisson_schedule(double rate, std::size_t n, std::uint64_t seed);

struct LoadgenConfig {
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;
    std::size_t connections = 8;  // concurrent client connections (workers)
    std::size_t requests = 64;    // total requests across all workers
    double rate = 0.0;            // open-loop arrivals/sec; 0 = closed loop
    std::uint64_t seed = 1;       // schedule + per-request seeds

    // Per-request generate parameters.
    trace::DeviceType device = trace::DeviceType::kPhone;
    int hour_of_day = 0;
    std::uint32_t count = 4;  // streams per request
    bool deterministic = true;
    std::uint32_t max_stream_len = 0;
    std::uint32_t deadline_ms = 0;
    std::string ue_prefix = "load";
};

struct LoadgenResult {
    std::size_t ok = 0;
    std::size_t failed = 0;  // transport errors + non-kOk statuses
    std::uint64_t streams = 0;
    double wall_seconds = 0.0;
    double achieved_rps = 0.0;            // ok / wall
    util::LatencyHistogram latency;       // seconds; open loop: from scheduled arrival
    std::string first_error;              // first failure detail, for diagnostics
};

LoadgenResult run_loadtest(const LoadgenConfig& cfg);

}  // namespace cpt::serve
