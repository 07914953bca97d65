#include "semi_markov.hpp"

#include "util/check.hpp"

namespace cpt::smm {

using cellular::EventId;
using cellular::StateMachine;
using cellular::SubState;

namespace {
constexpr std::size_t kNumSubStates = static_cast<std::size_t>(SubState::kNumSubStates);
}

std::size_t SemiMarkovModel::index(SubState s, EventId e) const {
    return static_cast<std::size_t>(s) * num_events_ + e;
}

SemiMarkovModel SemiMarkovModel::fit(const trace::Dataset& ds, const SmmConfig& config) {
    const auto& machine = StateMachine::for_generation(ds.generation);
    SemiMarkovModel m;
    m.generation_ = ds.generation;
    m.config_ = config;
    m.num_events_ = machine.num_events();
    m.transition_counts_.assign(kNumSubStates * m.num_events_, 0.0);
    std::vector<std::vector<double>> delays(kNumSubStates * m.num_events_);

    // Counts each legal transition and the delay since the previous legal
    // event; pre-bootstrap and violating events are skipped.
    struct Fit : cellular::WalkVisitor {
        SemiMarkovModel& m;
        std::vector<std::vector<double>>& delays;
        double prev_t = 0.0;

        void bootstrap(const cellular::ControlEvent& ev, SubState s) {
            prev_t = ev.timestamp;
            m.initial_state_counts_[static_cast<std::size_t>(s)] += 1.0;
        }
        void step(const cellular::ControlEvent& ev, SubState from, SubState) {
            const std::size_t key = m.index(from, ev.type);
            m.transition_counts_[key] += 1.0;
            delays[key].push_back(ev.timestamp - prev_t);
            prev_t = ev.timestamp;
        }
    };
    for (const auto& stream : ds.streams) {
        if (stream.length() < config.min_stream_length) continue;
        if (!cellular::walk(machine, stream.events, Fit{{}, m, delays})) continue;
        ++m.fitted_streams_;
        m.device_ = stream.device;
        m.hour_ = stream.hour_of_day;
    }
    CPT_CHECK_GT(m.fitted_streams_, std::size_t{0},
                 " SemiMarkovModel::fit: no usable streams in dataset");
    m.sojourn_.resize(delays.size());
    for (std::size_t i = 0; i < delays.size(); ++i) {
        if (!delays[i].empty()) m.sojourn_[i] = EmpiricalCdf(std::move(delays[i]));
    }
    return m;
}

std::size_t SemiMarkovModel::num_cdfs() const {
    std::size_t n = 0;
    for (const auto& cdf : sojourn_) {
        if (!cdf.empty()) ++n;
    }
    return n;
}

trace::Stream SemiMarkovModel::generate_stream(const std::string& ue_id, util::Rng& rng) const {
    trace::Stream out;
    out.ue_id = ue_id;
    out.device = device_;
    out.hour_of_day = hour_;

    auto state = static_cast<SubState>(
        rng.categorical(std::span<const double>(initial_state_counts_)));
    double t = 0.0;
    bool first = true;
    while (out.events.size() < config_.max_events_per_stream) {
        // Next-event distribution at the current sub-state.
        const std::size_t base = static_cast<std::size_t>(state) * num_events_;
        double total = 0.0;
        for (std::size_t e = 0; e < num_events_; ++e) total += transition_counts_[base + e];
        if (total <= 0.0) break;  // no outgoing transition observed in training
        std::span<const double> weights(transition_counts_.data() + base, num_events_);
        const auto event = static_cast<EventId>(rng.categorical(weights));
        const auto& cdf = sojourn_[base + event];
        const double delay = cdf.empty() ? 0.0 : std::max(0.0, cdf.sample(rng));
        if (!first && t + delay > config_.window_seconds) break;
        t = first ? 0.0 : t + delay;
        first = false;
        out.events.push_back({t, event});
        const auto next =
            StateMachine::for_generation(generation_).step(state, event);
        CPT_CHECK(next.has_value(), "SemiMarkovModel generated an illegal transition from state ",
                  static_cast<int>(state), " on event ", event);
        state = *next;
    }
    return out;
}

trace::Dataset SemiMarkovModel::generate(std::size_t n, util::Rng& rng,
                                         const std::string& ue_prefix) const {
    trace::Dataset ds;
    ds.generation = generation_;
    for (std::size_t i = 0; i < n; ++i) {
        const std::string id = trace::ue_id(ue_prefix, i);
        trace::Stream s;
        // Bounded re-draws: a stream that terminated below the minimum length
        // is discarded and re-sampled.
        for (int attempt = 0; attempt < 5; ++attempt) {
            s = generate_stream(id, rng);
            if (s.length() >= config_.min_stream_length) break;
        }
        if (s.length() >= config_.min_stream_length) ds.streams.push_back(std::move(s));
    }
    return ds;
}

}  // namespace cpt::smm
