#include "trace_lint.hpp"

#include <algorithm>
#include <sstream>

#include "trace/columnar.hpp"
#include "util/ascii.hpp"
#include "util/check.hpp"

namespace cpt::lint {

using cellular::StateMachineReplayer;
using cellular::SubState;

namespace {

constexpr std::size_t kNumSubStates = static_cast<std::size_t>(SubState::kNumSubStates);

// A report with no streams folded in yet.
TraceLintReport empty_report(const cellular::StateMachine& m, const TraceLintConfig& config) {
    TraceLintReport report;
    report.generation = m.generation();
    report.top_k = config.top_k;
    report.violations_by_state_event.assign(kNumSubStates * m.num_events(), 0);
    return report;
}

// Replays one chunk of streams (the next ones in dataset order) and folds it
// into `report`: the single aggregation behind both lint() overloads.
void fold_chunk(const cellular::StateMachine& m,
                std::span<const std::span<const cellular::ControlEvent>> streams,
                std::span<const std::string_view> ue_ids, bool per_ue, TraceLintReport& report) {
    const auto results = StateMachineReplayer(m).replay_all(streams);
    for (std::size_t i = 0; i < results.size(); ++i) {
        const auto& r = results[i];
        const std::size_t stream_index = report.total_streams++;
        report.total_events += streams[i].size();
        report.pre_bootstrap_events += r.pre_bootstrap_events;
        report.counted_events += r.counted_events;
        report.violating_events += r.violations;
        if (r.has_violation()) {
            ++report.violating_streams;
            if (!report.first_offender) {
                const auto& ev = streams[i][r.first_violation->event_index];
                report.first_offender =
                    FirstOffender{stream_index, std::string(ue_ids[i]),
                                  r.first_violation->event_index, ev.timestamp,
                                  r.first_violation->state, ev.type};
            }
        }
        if (!r.bootstrapped) ++report.unbootstrapped_streams;
        for (std::size_t k = 0; k < report.violations_by_state_event.size(); ++k) {
            report.violations_by_state_event[k] += r.violation_by_state_event[k];
        }
        if (per_ue) {
            report.per_ue.push_back({std::string(ue_ids[i]), streams[i].size(), r.counted_events,
                                     r.violations, r.bootstrapped});
        }
    }
}

}  // namespace

std::vector<ViolationCategory> TraceLintReport::top_categories(std::size_t k) const {
    const std::size_t num_events = violations_by_state_event.size() / kNumSubStates;
    std::vector<std::size_t> order(violations_by_state_event.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    // Equal counts rank by ascending key, so the order (and render()/to_json())
    // does not depend on the standard library's sort.
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        const std::size_t ca = violations_by_state_event[a];
        const std::size_t cb = violations_by_state_event[b];
        return ca > cb || (ca == cb && a < b);
    });
    std::vector<ViolationCategory> out;
    for (std::size_t rank = 0; rank < k && rank < order.size(); ++rank) {
        const std::size_t key = order[rank];
        if (violations_by_state_event[key] == 0) break;
        ViolationCategory cat;
        cat.state = static_cast<SubState>(key / num_events);
        cat.event = static_cast<cellular::EventId>(key % num_events);
        cat.count = violations_by_state_event[key];
        cat.event_fraction =
            counted_events ? static_cast<double>(cat.count) / static_cast<double>(counted_events)
                           : 0.0;
        out.push_back(cat);
    }
    return out;
}

std::string TraceLintReport::render() const {
    const auto& vocab = cellular::vocabulary(generation);
    std::ostringstream out;

    util::TextTable totals({"metric", "value"});
    totals.add_row({"streams", std::to_string(total_streams)});
    totals.add_row({"events", std::to_string(total_events)});
    totals.add_row({"pre-bootstrap events", std::to_string(pre_bootstrap_events)});
    totals.add_row({"counted events", std::to_string(counted_events)});
    totals.add_row({"violating events",
                    std::to_string(violating_events) + " (" + util::fmt_pct(event_fraction(), 3) +
                        ")"});
    totals.add_row({"violating streams",
                    std::to_string(violating_streams) + " (" + util::fmt_pct(stream_fraction(), 2) +
                        ")"});
    totals.add_row({"unbootstrapped streams", std::to_string(unbootstrapped_streams)});
    out << totals.render();

    const auto cats = top_categories(top_k);
    if (!cats.empty()) {
        out << "\nTop violation categories:\n";
        util::TextTable t({"state", "event", "count", "share of events"});
        for (const auto& c : cats) {
            t.add_row({std::string(to_string(c.state)), vocab.name(c.event),
                       std::to_string(c.count), util::fmt_pct(c.event_fraction, 2)});
        }
        out << t.render();
    }

    if (first_offender) {
        const auto& f = *first_offender;
        out << "\nFirst offender: stream #" << f.stream_index << " (" << f.ue_id << "), event #"
            << f.event_index << " '" << vocab.name(f.event) << "' at t=" << f.timestamp
            << "s in state " << to_string(f.state) << "\n";
    }

    if (!per_ue.empty()) {
        // Worst offenders first; clean UEs are summarized by the totals.
        std::vector<const UeSummary*> worst;
        for (const auto& u : per_ue) {
            if (u.violations > 0) worst.push_back(&u);
        }
        std::stable_sort(worst.begin(), worst.end(),
                         [](const UeSummary* a, const UeSummary* b) {
                             return a->violations > b->violations;
                         });
        if (!worst.empty()) {
            out << "\nViolating UEs (" << worst.size() << "):\n";
            util::TextTable t({"ue", "events", "counted", "violations"});
            constexpr std::size_t kMaxRows = 20;
            for (std::size_t i = 0; i < worst.size() && i < kMaxRows; ++i) {
                const auto& u = *worst[i];
                t.add_row({u.ue_id, std::to_string(u.events), std::to_string(u.counted_events),
                           std::to_string(u.violations)});
            }
            out << t.render();
            if (worst.size() > kMaxRows) {
                out << "  ... " << (worst.size() - kMaxRows) << " more\n";
            }
        }
    }
    return out.str();
}

std::string TraceLintReport::to_json() const {
    const auto& vocab = cellular::vocabulary(generation);
    std::ostringstream out;
    out << "{";
    out << "\"generation\":\"" << (generation == cellular::Generation::kLte4G ? "4g" : "5g")
        << "\"";
    out << ",\"streams\":" << total_streams;
    out << ",\"events\":" << total_events;
    out << ",\"pre_bootstrap_events\":" << pre_bootstrap_events;
    out << ",\"counted_events\":" << counted_events;
    out << ",\"violating_events\":" << violating_events;
    out << ",\"violating_streams\":" << violating_streams;
    out << ",\"unbootstrapped_streams\":" << unbootstrapped_streams;
    out << ",\"event_violation_fraction\":" << event_fraction();
    out << ",\"stream_violation_fraction\":" << stream_fraction();
    out << ",\"top_categories\":[";
    const auto cats = top_categories(top_k);
    for (std::size_t i = 0; i < cats.size(); ++i) {
        if (i) out << ",";
        out << "{\"state\":\"" << to_string(cats[i].state) << "\",\"event\":\""
            << util::json_escape(vocab.name(cats[i].event)) << "\",\"count\":" << cats[i].count
            << ",\"event_fraction\":" << cats[i].event_fraction << "}";
    }
    out << "]";
    if (first_offender) {
        const auto& f = *first_offender;
        out << ",\"first_offender\":{\"stream_index\":" << f.stream_index << ",\"ue_id\":\""
            << util::json_escape(f.ue_id) << "\",\"event_index\":" << f.event_index
            << ",\"timestamp\":" << f.timestamp << ",\"state\":\"" << to_string(f.state)
            << "\",\"event\":\"" << util::json_escape(vocab.name(f.event)) << "\"}";
    }
    if (!per_ue.empty()) {
        out << ",\"per_ue\":[";
        for (std::size_t i = 0; i < per_ue.size(); ++i) {
            const auto& u = per_ue[i];
            if (i) out << ",";
            out << "{\"ue_id\":\"" << util::json_escape(u.ue_id) << "\",\"events\":" << u.events
                << ",\"counted_events\":" << u.counted_events
                << ",\"violations\":" << u.violations
                << ",\"bootstrapped\":" << (u.bootstrapped ? "true" : "false") << "}";
        }
        out << "]";
    }
    out << "}";
    return out.str();
}

TraceLintReport TraceLinter::lint(const trace::Dataset& ds, const TraceLintConfig& config) const {
    CPT_CHECK(ds.generation == machine_->generation(),
              "TraceLinter::lint: dataset generation does not match the linter's machine");
    TraceLintReport report = empty_report(*machine_, config);
    std::vector<std::span<const cellular::ControlEvent>> streams;
    std::vector<std::string_view> ue_ids;
    streams.reserve(ds.streams.size());
    ue_ids.reserve(ds.streams.size());
    for (const auto& s : ds.streams) {
        streams.emplace_back(s.events);
        ue_ids.emplace_back(s.ue_id);
    }
    fold_chunk(*machine_, streams, ue_ids, config.per_ue, report);
    return report;
}

TraceLintReport TraceLinter::lint(trace::ColumnarReader& reader,
                                  const TraceLintConfig& config) const {
    CPT_CHECK(reader.generation() == machine_->generation(),
              "TraceLinter::lint: trace generation does not match the linter's machine");
    CPT_CHECK(!config.per_ue,
              "TraceLinter::lint(ColumnarReader): per-UE summaries are O(streams) and not "
              "available on the streaming path");
    TraceLintReport report = empty_report(*machine_, config);
    reader.rewind();
    trace::StreamBatch batch;
    std::vector<std::span<const cellular::ControlEvent>> streams;
    std::vector<std::string_view> ue_ids;
    while (reader.next(batch)) {
        streams.clear();
        ue_ids.clear();
        for (std::size_t i = 0; i < batch.size(); ++i) {
            streams.push_back(batch.events_of(i));
            ue_ids.emplace_back(batch.ue_ids[i]);
        }
        fold_chunk(*machine_, streams, ue_ids, false, report);
    }
    return report;
}

}  // namespace cpt::lint
