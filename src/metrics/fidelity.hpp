// The paper's fidelity metric suite (Table 2): semantic violations (counted
// by lint::TraceLinter), sojourn time distributions, event-type breakdown,
// flow-length distributions, and report aggregation used by every evaluation
// bench.
#pragma once

#include <string>
#include <vector>

#include "cellular/state_machine.hpp"
#include "trace/columnar.hpp"
#include "trace/stream.hpp"
#include "util/sketch.hpp"
#include "util/stats.hpp"

namespace cpt::metrics {

// ---- Sojourn times (evaluates C3) ----------------------------------------------

struct SojournSamples {
    // Completed sojourn intervals pooled over all streams.
    std::vector<double> connected;
    std::vector<double> idle;
    // Per-UE mean sojourn per state (the paper's Fig. 2 metric: "average
    // sojourn time ... of each UE"); one entry per stream that completed at
    // least one interval in the state.
    std::vector<double> per_ue_mean_connected;
    std::vector<double> per_ue_mean_idle;
};

SojournSamples collect_sojourns(const trace::Dataset& ds);

// ---- Aggregated report ----------------------------------------------------------

// Max CDF y-distances and breakdown differences between a synthesized dataset
// and a reference ("real") dataset. All distances use the per-UE mean sojourn
// CDFs (Fig. 2 / Table 6) and per-stream flow-length CDFs.
struct FidelityReport {
    double event_violation_fraction = 0.0;
    double stream_violation_fraction = 0.0;
    double maxy_sojourn_connected = 0.0;
    double maxy_sojourn_idle = 0.0;
    double maxy_flow_length_all = 0.0;
    double maxy_flow_length_srv_req = 0.0;
    double maxy_flow_length_s1_rel = 0.0;
    // synthesized breakdown minus real breakdown, per event type.
    std::vector<double> breakdown_diff;

    // Mean over the two sojourn distances (the paper's summary statistic).
    double mean_sojourn_maxy() const {
        return (maxy_sojourn_connected + maxy_sojourn_idle) / 2.0;
    }
    // Largest absolute breakdown difference.
    double max_breakdown_diff() const;
};

FidelityReport evaluate_fidelity(const trace::Dataset& synthesized, const trace::Dataset& real);

// ---- Streaming fidelity (DESIGN.md §14) -----------------------------------------
//
// FidelityAccumulator builds the Table-2 statistics incrementally: exact
// counters (event-type breakdown, violation tallies) plus deterministic
// quantile sketches (per-UE mean sojourns, flow lengths). Chunks can be
// accumulated on pool workers into per-chunk accumulators and merge()d in
// ascending chunk order — counters are exact under any grouping, sketches are
// reproducible under the canonical fold order (see util/sketch.hpp). Memory
// is O(sketches), independent of the trace size.
class FidelityAccumulator {
public:
    explicit FidelityAccumulator(cellular::Generation gen, std::size_t sketch_k = 1024);

    // Replays one decoded chunk (sharded over the thread pool) and folds its
    // statistics in.
    void add(const trace::StreamBatch& batch);
    // In-RAM bridge: folds a whole dataset (via Dataset::for_each_stream).
    void add(const trace::Dataset& ds);

    // Canonical merge; both sides must share the generation and sketch k.
    void merge(const FidelityAccumulator& other);

    cellular::Generation generation() const { return gen_; }
    std::uint64_t total_streams() const { return total_streams_; }
    std::uint64_t total_events() const { return event_counts_.total(); }

    // Worst-case rank error (fraction of count) across this accumulator's
    // sketches — the documented ε for the quantile-based distances below.
    double sketch_rank_error() const;

    bool operator==(const FidelityAccumulator& other) const = default;

    // The evaluator needs the raw pieces.
    friend FidelityReport evaluate_fidelity(const FidelityAccumulator& synthesized,
                                            const FidelityAccumulator& real);

private:
    void add_streams(std::span<const std::span<const cellular::ControlEvent>> streams);

    cellular::Generation gen_;
    util::CountTable event_counts_;  // per event type (exact)
    std::uint64_t total_streams_ = 0;
    std::uint64_t counted_events_ = 0;
    std::uint64_t violating_events_ = 0;
    std::uint64_t violating_streams_ = 0;
    util::QuantileSketch per_ue_mean_connected_;
    util::QuantileSketch per_ue_mean_idle_;
    util::QuantileSketch flow_all_;
    util::QuantileSketch flow_srv_req_;
    util::QuantileSketch flow_s1_rel_;
};

// The streaming counterpart of evaluate_fidelity(Dataset, Dataset): exact for
// violation fractions and breakdown_diff, within sketch_rank_error() of the
// exact statistic for the five max-y distances.
FidelityReport evaluate_fidelity(const FidelityAccumulator& synthesized,
                                 const FidelityAccumulator& real);

// Accumulates a whole columnar trace chunk-at-a-time (rewinding first).
FidelityAccumulator accumulate_fidelity(trace::ColumnarReader& reader,
                                        std::size_t sketch_k = 1024);

// End-to-end streaming evaluation of two columnar traces in O(chunk) memory.
FidelityReport evaluate_fidelity_streaming(trace::ColumnarReader& synthesized,
                                           trace::ColumnarReader& real);

// Renders a report as an aligned text block (used by benches/examples).
std::string render_report(const FidelityReport& report, const trace::Dataset& reference);
std::string render_report(const FidelityReport& report, cellular::Generation generation);

}  // namespace cpt::metrics
