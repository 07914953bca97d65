// Semantic linter for control-plane event streams (§5.2.1).
//
// TraceLinter replays every stream of a dataset through the generation's
// hierarchical UE state machine (cellular::StateMachineReplayer) and folds
// the results into a structured report: violation counts per (sub-state,
// event) category, the first offending event with its full context (from the
// replayer's first-violation record), optional per-UE summaries, and
// text/JSON renderings. Both lint() overloads run the same per-chunk fold.
// It is the single source of truth for violation accounting: the Table 3/5
// benches call it and metrics::evaluate_fidelity reads its two fractions, so
// a CSV trace linted with the cpt_lint CLI shows exactly the numbers the
// paper tables report.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "cellular/state_machine.hpp"
#include "trace/stream.hpp"

namespace cpt::trace {
class ColumnarReader;
}

namespace cpt::lint {

// One (sub-state, event) violation category with its aggregate count.
struct ViolationCategory {
    cellular::SubState state = cellular::SubState::kDeregistered;
    cellular::EventId event = 0;
    std::size_t count = 0;
    // Share of counted (post-bootstrap) events, the paper's Table 3 metric.
    double event_fraction = 0.0;
};

// Context of the first violating event in dataset order.
struct FirstOffender {
    std::size_t stream_index = 0;  // position of the stream in the dataset
    std::string ue_id;
    std::size_t event_index = 0;   // position of the event within the stream
    double timestamp = 0.0;
    cellular::SubState state = cellular::SubState::kDeregistered;  // at the event
    cellular::EventId event = 0;
};

struct UeSummary {
    std::string ue_id;
    std::size_t events = 0;          // stream length
    std::size_t counted_events = 0;  // post-bootstrap
    std::size_t violations = 0;
    bool bootstrapped = false;
};

struct TraceLintConfig {
    // Collect a per-UE summary row for every stream (off for bulk metric use;
    // the CLI turns it on).
    bool per_ue = false;
    // Categories listed by render()/to_json(); all non-zero ones are always
    // available via top_categories().
    std::size_t top_k = 3;
};

struct TraceLintReport {
    cellular::Generation generation = cellular::Generation::kLte4G;
    std::size_t total_streams = 0;
    std::size_t total_events = 0;
    std::size_t pre_bootstrap_events = 0;
    std::size_t counted_events = 0;
    std::size_t violating_events = 0;
    std::size_t violating_streams = 0;
    std::size_t unbootstrapped_streams = 0;
    // Dense (sub-state, event) counts keyed state * num_events + event —
    // identical keying to cellular::ReplayResult::violation_by_state_event.
    std::vector<std::size_t> violations_by_state_event;
    std::optional<FirstOffender> first_offender;
    std::vector<UeSummary> per_ue;  // filled when TraceLintConfig::per_ue
    std::size_t top_k = 3;

    double event_fraction() const {
        return counted_events ? static_cast<double>(violating_events) /
                                    static_cast<double>(counted_events)
                              : 0.0;
    }
    double stream_fraction() const {
        return total_streams ? static_cast<double>(violating_streams) /
                                   static_cast<double>(total_streams)
                             : 0.0;
    }
    // The k largest non-zero categories, by descending count; equal counts
    // in ascending key (state * num_events + event) order.
    std::vector<ViolationCategory> top_categories(std::size_t k) const;

    // Aligned text rendering (tables: totals, top categories, worst UEs).
    std::string render() const;
    // Machine-readable JSON object with the same content.
    std::string to_json() const;
};

class TraceLinter {
public:
    explicit TraceLinter(cellular::Generation gen)
        : machine_(&cellular::StateMachine::for_generation(gen)) {}

    const cellular::StateMachine& machine() const { return *machine_; }

    // Replays every stream (sharded over the thread pool) and aggregates.
    TraceLintReport lint(const trace::Dataset& ds, const TraceLintConfig& config = {}) const;

    // Streaming overload: replays a columnar trace one chunk at a time
    // (rewinding the reader first), holding O(chunk) memory. Produces the
    // same report as the in-RAM overload on the same streams, except that
    // per-UE summaries are unavailable (they are O(streams) by definition,
    // so TraceLintConfig::per_ue is rejected here).
    TraceLintReport lint(trace::ColumnarReader& reader, const TraceLintConfig& config = {}) const;

private:
    const cellular::StateMachine* machine_;
};

}  // namespace cpt::lint
