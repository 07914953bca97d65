#include "markov.hpp"


#include "util/check.hpp"

namespace cpt::smm {

std::uint32_t MarkovGenerator::context_key(const std::vector<cellular::EventId>& history) const {
    // 6 bits per event id; +1 offset distinguishes "absent" from event 0.
    std::uint32_t key = 0;
    const std::size_t take = std::min(history.size(), config_.order);
    for (std::size_t i = history.size() - take; i < history.size(); ++i) {
        key = (key << 6) | (static_cast<std::uint32_t>(history[i]) + 1u);
    }
    return key;
}

MarkovGenerator MarkovGenerator::fit(const trace::Dataset& ds, const Config& config) {
    CPT_CHECK(config.order >= 1 && config.order <= 4,
              "MarkovGenerator::fit: order must be in [1, 4], got ", config.order);
    MarkovGenerator m;
    m.config_ = config;
    m.generation_ = ds.generation;
    m.num_events_ = cellular::vocabulary(ds.generation).size();
    m.initial_counts_.assign(m.num_events_, 0.0);
    std::vector<std::vector<double>> delay_samples((m.num_events_ + 1) * m.num_events_);

    std::size_t fitted = 0;
    for (const auto& s : ds.streams) {
        if (s.length() < 2) continue;
        ++fitted;
        m.initial_counts_[s.events.front().type] += 1.0;
        std::vector<cellular::EventId> history{s.events.front().type};
        for (std::size_t k = 1; k < s.events.size(); ++k) {
            const auto ev = s.events[k].type;
            auto& counts = m.transitions_[m.context_key(history)];
            if (counts.empty()) counts.assign(m.num_events_, 0.0);
            counts[ev] += 1.0;
            const std::size_t prev = history.back() + 1;
            delay_samples[prev * m.num_events_ + ev].push_back(s.events[k].timestamp -
                                                               s.events[k - 1].timestamp);
            history.push_back(ev);
        }
    }
    CPT_CHECK_GT(fitted, std::size_t{0}, " MarkovGenerator::fit: no usable streams");
    m.delays_.resize(delay_samples.size());
    for (std::size_t i = 0; i < delay_samples.size(); ++i) {
        if (!delay_samples[i].empty()) m.delays_[i] = EmpiricalCdf(std::move(delay_samples[i]));
    }
    return m;
}

trace::Stream MarkovGenerator::generate_stream(const std::string& ue_id, util::Rng& rng) const {
    trace::Stream out;
    out.ue_id = ue_id;
    const auto first =
        static_cast<cellular::EventId>(rng.categorical(std::span<const double>(initial_counts_)));
    out.events.push_back({0.0, first});
    std::vector<cellular::EventId> history{first};
    double t = 0.0;
    while (out.events.size() < config_.max_events_per_stream) {
        const auto it = transitions_.find(context_key(history));
        if (it == transitions_.end()) break;  // unseen context: stream ends
        double total = 0.0;
        for (double c : it->second) total += c;
        if (total <= 0.0) break;
        const auto ev =
            static_cast<cellular::EventId>(rng.categorical(std::span<const double>(it->second)));
        const std::size_t prev = history.back() + 1;
        const auto& cdf = delays_[prev * num_events_ + ev];
        const double delay = cdf.empty() ? 0.0 : std::max(0.0, cdf.sample(rng));
        if (t + delay > config_.window_seconds) break;
        t += delay;
        out.events.push_back({t, ev});
        history.push_back(ev);
    }
    return out;
}

trace::Dataset MarkovGenerator::generate(std::size_t n, util::Rng& rng,
                                         const std::string& ue_prefix) const {
    trace::Dataset ds;
    ds.generation = generation_;
    for (std::size_t i = 0; i < n; ++i) {
        const std::string id = trace::ue_id(ue_prefix, i);
        trace::Stream s;
        for (int attempt = 0; attempt < 5; ++attempt) {
            s = generate_stream(id, rng);
            if (s.length() >= 2) break;
        }
        if (s.length() >= 2) ds.streams.push_back(std::move(s));
    }
    return ds;
}

}  // namespace cpt::smm
