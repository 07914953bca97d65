// Semi-Markov model over the two-level 3GPP UE state machine: per-sub-state
// next-event probabilities plus a per-(sub-state, event) empirical sojourn
// CDF, both fitted by walking real streams through the machine with
// cellular::walk(), the replayer's own §5.2.1 rule (the SMM baseline of the
// paper, originally Meng et al. IMC'23).
#pragma once

#include <array>
#include <optional>
#include <vector>

#include "cellular/state_machine.hpp"
#include "empirical_cdf.hpp"
#include "trace/stream.hpp"
#include "util/rng.hpp"

namespace cpt::smm {

struct SmmConfig {
    double window_seconds = 3600.0;
    std::size_t max_events_per_stream = 600;
    std::size_t min_stream_length = 2;
};

class SemiMarkovModel {
public:
    // Fits transition counts and sojourn CDFs from the streams of `ds`
    // (walked through the generation's state machine: events before the
    // bootstrap and violating events are skipped, a stream that never
    // bootstraps fits nothing). Throws if the dataset contains no usable
    // streams.
    static SemiMarkovModel fit(const trace::Dataset& ds, const SmmConfig& config = {});

    // Generates one stream. Because the model embeds the state machine, the
    // output never violates stateful semantics.
    trace::Stream generate_stream(const std::string& ue_id, util::Rng& rng) const;

    // Generates `n` streams (shorter than min_stream_length are re-drawn a
    // bounded number of times, then dropped).
    trace::Dataset generate(std::size_t n, util::Rng& rng,
                            const std::string& ue_prefix = "smm") const;

    cellular::Generation generation() const { return generation_; }
    std::size_t num_fitted_streams() const { return fitted_streams_; }
    // Number of non-empty per-transition CDFs (the paper counts 283,024 of
    // these across its 20,216 models).
    std::size_t num_cdfs() const;

private:
    SemiMarkovModel() = default;

    std::size_t index(cellular::SubState s, cellular::EventId e) const;

    cellular::Generation generation_ = cellular::Generation::kLte4G;
    SmmConfig config_;
    std::size_t num_events_ = 0;
    std::size_t fitted_streams_ = 0;
    // Unnormalized next-event counts per sub-state.
    std::vector<double> transition_counts_;  // [num_substates * num_events]
    std::vector<EmpiricalCdf> sojourn_;      // same indexing
    // Distribution over bootstrap sub-states of training streams.
    std::array<double, static_cast<std::size_t>(cellular::SubState::kNumSubStates)>
        initial_state_counts_{};
    trace::DeviceType device_ = trace::DeviceType::kPhone;
    int hour_ = 0;
};

}  // namespace cpt::smm
