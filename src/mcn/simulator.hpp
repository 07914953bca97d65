// A discrete-event toy Mobile Core Network used to *consume* synthesized
// control-plane traffic — the paper's motivating use case (§2.2: performance
// evaluation of MCN designs such as CoreKube/L25GC under realistic
// control-plane workloads).
//
// Each control event invokes a chain of network functions (MME/AMF, SGW/SMF,
// HSS/UDM ...) whose aggregate service time depends on the event type. The
// control-plane worker pool is modeled as a G/G/c queue; an optional
// autoscaler resizes the pool at fixed intervals based on observed
// utilization, which is exactly the capability whose evaluation requires
// traces with realistic diurnal drift (challenge C5). Per-UE CONNECTED spells
// come from cellular::walk(), the replayer's own §5.2.1 walk of the machine.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "trace/stream.hpp"

namespace cpt::mcn {

// Mean service time per event type in microseconds of control-plane CPU.
// Defaults reflect relative 3GPP procedure weights: attach runs the full
// authentication + session establishment chain, service request restores
// bearers, releases and TAUs are cheap, handovers involve path switching.
struct NfCostModel {
    double atch_us = 900.0;
    double dtch_us = 400.0;
    double srv_req_us = 250.0;
    double s1_rel_us = 120.0;
    double ho_us = 500.0;
    double tau_us = 150.0;

    double service_us(cellular::EventId event) const;

    // Derives per-event costs from the 3GPP message expansion
    // (cellular/messages.hpp): each MCN-side message of the procedure costs
    // `us_per_message` of control-plane CPU. This grounds the cost model in
    // the actual per-procedure signalling volume.
    static NfCostModel from_messages(cellular::Generation gen, double us_per_message = 60.0);
};

struct McnConfig {
    std::size_t workers = 4;
    NfCostModel costs;
    // Exponential jitter around the mean service time (G/G/c rather than D/D/c).
    bool stochastic_service = true;
    std::uint64_t seed = 1;

    // Autoscaler: every `autoscale_interval_s`, resize the pool so projected
    // utilization approaches `target_utilization` (within [min, max] workers).
    bool autoscale = false;
    double autoscale_interval_s = 60.0;
    double target_utilization = 0.6;
    std::size_t min_workers = 1;
    std::size_t max_workers = 64;
};

struct McnReport {
    std::size_t events_processed = 0;
    double makespan_s = 0.0;

    // Control-plane procedure latency (queueing + service), milliseconds.
    double latency_p50_ms = 0.0;
    double latency_p95_ms = 0.0;
    double latency_p99_ms = 0.0;
    double mean_utilization = 0.0;  // busy worker-time / available worker-time
    std::size_t peak_queue_depth = 0;

    // Peak number of UEs simultaneously in CONNECTED state (per-UE session
    // state an MCN must hold; challenge C3's sojourn realism feeds this). A
    // spell still open at a UE's last event ends there.
    std::size_t peak_connected_ues = 0;

    // (time, worker count) autoscaling trajectory; single entry when
    // autoscaling is off.
    std::vector<std::pair<double, std::size_t>> worker_trajectory;

    std::string render() const;
};

// Replays every event of `ds` (stream timestamps are within one common hour
// window, so streams interleave) through the MCN model.
McnReport simulate(const trace::Dataset& ds, const McnConfig& config = {});

}  // namespace cpt::mcn
