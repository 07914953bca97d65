#include "simulator.hpp"

#include <algorithm>
#include <queue>
#include <sstream>

#include "cellular/messages.hpp"
#include "cellular/state_machine.hpp"
#include "util/ascii.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace cpt::mcn {

double NfCostModel::service_us(cellular::EventId event) const {
    namespace lte = cellular::lte;
    switch (event) {
        case lte::kAtch: return atch_us;
        case lte::kDtch: return dtch_us;
        case lte::kSrvReq: return srv_req_us;
        case lte::kS1ConnRel: return s1_rel_us;
        case lte::kHo: return ho_us;
        case lte::kTau: return tau_us;
        default: return srv_req_us;
    }
}

NfCostModel NfCostModel::from_messages(cellular::Generation gen, double us_per_message) {
    namespace lte = cellular::lte;
    namespace nr = cellular::nr;
    NfCostModel m;
    auto cost = [&](cellular::EventId e) {
        return static_cast<double>(cellular::mcn_message_count(gen, e)) * us_per_message;
    };
    if (gen == cellular::Generation::kLte4G) {
        m.atch_us = cost(lte::kAtch);
        m.dtch_us = cost(lte::kDtch);
        m.srv_req_us = cost(lte::kSrvReq);
        m.s1_rel_us = cost(lte::kS1ConnRel);
        m.ho_us = cost(lte::kHo);
        m.tau_us = cost(lte::kTau);
    } else {
        m.atch_us = cost(nr::kRegister);
        m.dtch_us = cost(nr::kDeregister);
        m.srv_req_us = cost(nr::kSrvReq);
        m.s1_rel_us = cost(nr::kAnRel);
        m.ho_us = cost(nr::kHo);
        m.tau_us = cost(nr::kSrvReq);  // no TAU in 5G; id unused
    }
    return m;
}

namespace {

struct Arrival {
    double t = 0.0;
    cellular::EventId type = 0;
};

// Peak concurrency of [enter, exit) intervals via an event sweep.
std::size_t peak_concurrency(std::vector<std::pair<double, int>> deltas) {
    std::sort(deltas.begin(), deltas.end(), [](const auto& a, const auto& b) {
        // Exits before entries at equal times so touching intervals don't
        // double count.
        return a.first < b.first || (a.first == b.first && a.second < b.second);
    });
    std::size_t cur = 0;
    std::size_t peak = 0;
    for (const auto& [t, d] : deltas) {
        if (d > 0) {
            ++cur;
            peak = std::max(peak, cur);
        } else if (cur > 0) {
            --cur;
        }
    }
    return peak;
}

}  // namespace

McnReport simulate(const trace::Dataset& ds, const McnConfig& config) {
    CPT_CHECK_GT(config.workers, std::size_t{0}, " simulate: workers must be > 0");
    McnReport report;

    // ---- Collect the interleaved arrival sequence. ----
    std::vector<Arrival> arrivals;
    arrivals.reserve(ds.total_events());
    for (const auto& s : ds.streams) {
        for (const auto& e : s.events) arrivals.push_back({e.timestamp, e.type});
    }
    std::sort(arrivals.begin(), arrivals.end(),
              [](const Arrival& a, const Arrival& b) { return a.t < b.t; });
    if (arrivals.empty()) return report;

    util::Rng rng(config.seed);

    // ---- G/G/c queue: worker free times in a min-heap. ----
    std::priority_queue<double, std::vector<double>, std::greater<>> workers;
    std::size_t pool = config.workers;
    for (std::size_t i = 0; i < pool; ++i) workers.push(0.0);

    std::vector<double> latencies_ms;
    latencies_ms.reserve(arrivals.size());
    double busy_time = 0.0;
    double window_busy = 0.0;
    double window_start = arrivals.front().t;
    std::size_t peak_queue = 0;

    report.worker_trajectory.push_back({arrivals.front().t, pool});

    for (const Arrival& a : arrivals) {
        // ---- autoscaler boundary ----
        if (config.autoscale && a.t - window_start >= config.autoscale_interval_s) {
            const double capacity =
                static_cast<double>(pool) * (a.t - window_start);
            const double util = capacity > 0.0 ? window_busy / capacity : 0.0;
            const auto desired = static_cast<std::size_t>(std::clamp(
                static_cast<double>(pool) * util / config.target_utilization + 0.5,
                static_cast<double>(config.min_workers),
                static_cast<double>(config.max_workers)));
            if (desired != pool) {
                // Rebuild the pool: carry over backlog conservatively by
                // keeping the latest free times.
                std::vector<double> free_times;
                while (!workers.empty()) {
                    free_times.push_back(workers.top());
                    workers.pop();
                }
                std::sort(free_times.begin(), free_times.end());
                free_times.resize(std::min(free_times.size(), desired), a.t);
                while (free_times.size() < desired) free_times.push_back(a.t);
                for (double f : free_times) workers.push(f);
                pool = desired;
                report.worker_trajectory.push_back({a.t, pool});
            }
            window_start = a.t;
            window_busy = 0.0;
        }

        const double mean_us = config.costs.service_us(a.type);
        const double service_s =
            (config.stochastic_service ? rng.exponential(1.0 / mean_us) : mean_us) * 1e-6;

        const double free_at = workers.top();
        workers.pop();
        const double start = std::max(free_at, a.t);
        const double done = start + service_s;
        workers.push(done);

        latencies_ms.push_back((done - a.t) * 1e3);
        busy_time += service_s;
        window_busy += service_s;
        ++report.events_processed;

        // Queue depth proxy: how many workers are busy past this arrival.
        // (Exact queue tracking would need an event list; busy-count is the
        // standard G/G/c occupancy proxy.)
        std::size_t busy = 0;
        std::priority_queue<double, std::vector<double>, std::greater<>> copy = workers;
        while (!copy.empty()) {
            if (copy.top() > a.t) ++busy;
            copy.pop();
        }
        peak_queue = std::max(peak_queue, busy);
    }

    report.makespan_s = arrivals.back().t - arrivals.front().t;
    report.peak_queue_depth = peak_queue;
    report.latency_p50_ms = util::quantile(latencies_ms, 0.50);
    report.latency_p95_ms = util::quantile(latencies_ms, 0.95);
    report.latency_p99_ms = util::quantile(latencies_ms, 0.99);
    const double avail = report.makespan_s > 0.0
                             ? report.makespan_s * static_cast<double>(config.workers)
                             : busy_time;
    report.mean_utilization = avail > 0.0 ? busy_time / avail : 0.0;

    // ---- Peak concurrent CONNECTED UEs (per-UE state table load). ----
    // Each UE's CONNECTED spells become [enter, exit) intervals; a spell
    // still open at the UE's last event closes there.
    struct ConnectedSpells : cellular::WalkVisitor {
        std::vector<std::pair<double, int>>& deltas;
        double entered = 0.0;
        bool in_conn = false;

        void bootstrap(const cellular::ControlEvent& e, cellular::SubState s) {
            in_conn = top_state_of(s) == cellular::TopState::kConnected;
            entered = e.timestamp;
        }
        void step(const cellular::ControlEvent& e, cellular::SubState, cellular::SubState to) {
            const bool next_conn = top_state_of(to) == cellular::TopState::kConnected;
            if (next_conn && !in_conn) {
                entered = e.timestamp;
            } else if (!next_conn && in_conn) {
                deltas.push_back({entered, +1});
                deltas.push_back({e.timestamp, -1});
            }
            in_conn = next_conn;
        }
    };
    const auto& machine = cellular::StateMachine::for_generation(ds.generation);
    std::vector<std::pair<double, int>> deltas;
    for (const auto& s : ds.streams) {
        ConnectedSpells spells{{}, deltas};
        cellular::walk(machine, s.events, spells);
        if (spells.in_conn) {
            deltas.push_back({spells.entered, +1});
            deltas.push_back({s.events.back().timestamp, -1});
        }
    }
    report.peak_connected_ues = peak_concurrency(std::move(deltas));
    return report;
}

std::string McnReport::render() const {
    util::TextTable t({"MCN metric", "value"});
    t.add_row({"events processed", std::to_string(events_processed)});
    t.add_row({"makespan", util::fmt(makespan_s, 1) + " s"});
    t.add_row({"latency p50", util::fmt(latency_p50_ms, 3) + " ms"});
    t.add_row({"latency p95", util::fmt(latency_p95_ms, 3) + " ms"});
    t.add_row({"latency p99", util::fmt(latency_p99_ms, 3) + " ms"});
    t.add_row({"mean utilization", util::fmt_pct(mean_utilization, 1)});
    t.add_row({"peak busy workers", std::to_string(peak_queue_depth)});
    t.add_row({"peak CONNECTED UEs", std::to_string(peak_connected_ues)});
    t.add_row({"autoscale steps", std::to_string(worker_trajectory.size())});
    return t.render();
}

}  // namespace cpt::mcn
