#include "fidelity.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "lint/trace_lint.hpp"
#include "util/ascii.hpp"
#include "util/check.hpp"

namespace cpt::metrics {

using cellular::StateMachine;
using cellular::StateMachineReplayer;

SojournSamples collect_sojourns(const trace::Dataset& ds) {
    const auto& machine = StateMachine::for_generation(ds.generation);
    const StateMachineReplayer replayer(machine);
    SojournSamples out;
    std::vector<std::span<const cellular::ControlEvent>> streams;
    streams.reserve(ds.streams.size());
    for (const auto& s : ds.streams) streams.emplace_back(s.events);
    for (const auto& r : replayer.replay_all(streams)) {
        out.connected.insert(out.connected.end(), r.sojourn_connected.begin(),
                             r.sojourn_connected.end());
        out.idle.insert(out.idle.end(), r.sojourn_idle.begin(), r.sojourn_idle.end());
        if (!r.sojourn_connected.empty()) {
            out.per_ue_mean_connected.push_back(util::summarize(r.sojourn_connected).mean);
        }
        if (!r.sojourn_idle.empty()) {
            out.per_ue_mean_idle.push_back(util::summarize(r.sojourn_idle).mean);
        }
    }
    return out;
}

double FidelityReport::max_breakdown_diff() const {
    double mx = 0.0;
    for (double d : breakdown_diff) mx = std::max(mx, std::abs(d));
    return mx;
}

FidelityReport evaluate_fidelity(const trace::Dataset& synthesized, const trace::Dataset& real) {
    FidelityReport r;
    const auto violations = lint::TraceLinter(synthesized.generation).lint(synthesized);
    r.event_violation_fraction = violations.event_fraction();
    r.stream_violation_fraction = violations.stream_fraction();

    const SojournSamples ss = collect_sojourns(synthesized);
    const SojournSamples sr = collect_sojourns(real);
    r.maxy_sojourn_connected =
        util::max_cdf_y_distance(ss.per_ue_mean_connected, sr.per_ue_mean_connected);
    r.maxy_sojourn_idle = util::max_cdf_y_distance(ss.per_ue_mean_idle, sr.per_ue_mean_idle);

    r.maxy_flow_length_all = util::max_cdf_y_distance(synthesized.flow_lengths(), real.flow_lengths());
    r.maxy_flow_length_srv_req = util::max_cdf_y_distance(
        synthesized.flow_lengths(cellular::lte::kSrvReq), real.flow_lengths(cellular::lte::kSrvReq));
    r.maxy_flow_length_s1_rel =
        util::max_cdf_y_distance(synthesized.flow_lengths(cellular::lte::kS1ConnRel),
                                 real.flow_lengths(cellular::lte::kS1ConnRel));

    const auto ps = synthesized.event_type_breakdown();
    const auto pr = real.event_type_breakdown();
    r.breakdown_diff.resize(ps.size(), 0.0);
    for (std::size_t i = 0; i < ps.size(); ++i) r.breakdown_diff[i] = ps[i] - pr[i];
    return r;
}

FidelityAccumulator::FidelityAccumulator(cellular::Generation gen, std::size_t sketch_k)
    : gen_(gen),
      event_counts_(cellular::vocabulary(gen).size()),
      per_ue_mean_connected_(sketch_k),
      per_ue_mean_idle_(sketch_k),
      flow_all_(sketch_k),
      flow_srv_req_(sketch_k),
      flow_s1_rel_(sketch_k) {}

void FidelityAccumulator::add_streams(
    std::span<const std::span<const cellular::ControlEvent>> streams) {
    const auto& machine = StateMachine::for_generation(gen_);
    const auto results = StateMachineReplayer(machine).replay_all(streams);
    for (std::size_t i = 0; i < streams.size(); ++i) {
        const auto& events = streams[i];
        const auto& r = results[i];
        ++total_streams_;
        counted_events_ += r.counted_events;
        violating_events_ += r.violations;
        if (r.has_violation()) ++violating_streams_;
        std::uint64_t srv_req = 0;
        std::uint64_t s1_rel = 0;
        for (const auto& e : events) {
            event_counts_.bump(e.type);
            if (e.type == cellular::lte::kSrvReq) ++srv_req;
            if (e.type == cellular::lte::kS1ConnRel) ++s1_rel;
        }
        flow_all_.add(static_cast<double>(events.size()));
        flow_srv_req_.add(static_cast<double>(srv_req));
        flow_s1_rel_.add(static_cast<double>(s1_rel));
        if (!r.sojourn_connected.empty()) {
            per_ue_mean_connected_.add(util::summarize(r.sojourn_connected).mean);
        }
        if (!r.sojourn_idle.empty()) {
            per_ue_mean_idle_.add(util::summarize(r.sojourn_idle).mean);
        }
    }
}

void FidelityAccumulator::add(const trace::StreamBatch& batch) {
    CPT_CHECK(batch.generation == gen_,
              "FidelityAccumulator::add: chunk generation does not match the accumulator's");
    std::vector<std::span<const cellular::ControlEvent>> streams;
    streams.reserve(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) streams.push_back(batch.events_of(i));
    add_streams(streams);
}

void FidelityAccumulator::add(const trace::Dataset& ds) {
    CPT_CHECK(ds.generation == gen_,
              "FidelityAccumulator::add: dataset generation does not match the accumulator's");
    std::vector<std::span<const cellular::ControlEvent>> streams;
    streams.reserve(ds.streams.size());
    ds.for_each_stream(std::nullopt, std::nullopt,
                       [&](const trace::Stream& s) { streams.emplace_back(s.events); });
    add_streams(streams);
}

void FidelityAccumulator::merge(const FidelityAccumulator& other) {
    CPT_CHECK(other.gen_ == gen_, "FidelityAccumulator::merge: mismatched generations");
    event_counts_.merge(other.event_counts_);
    total_streams_ += other.total_streams_;
    counted_events_ += other.counted_events_;
    violating_events_ += other.violating_events_;
    violating_streams_ += other.violating_streams_;
    per_ue_mean_connected_.merge(other.per_ue_mean_connected_);
    per_ue_mean_idle_.merge(other.per_ue_mean_idle_);
    flow_all_.merge(other.flow_all_);
    flow_srv_req_.merge(other.flow_srv_req_);
    flow_s1_rel_.merge(other.flow_s1_rel_);
}

double FidelityAccumulator::sketch_rank_error() const {
    double e = 0.0;
    for (const auto* s : {&per_ue_mean_connected_, &per_ue_mean_idle_, &flow_all_, &flow_srv_req_,
                          &flow_s1_rel_}) {
        e = std::max(e, s->rank_error_bound());
    }
    return e;
}

FidelityReport evaluate_fidelity(const FidelityAccumulator& synthesized,
                                 const FidelityAccumulator& real) {
    CPT_CHECK(synthesized.gen_ == real.gen_,
              "evaluate_fidelity: mismatched generations between accumulators");
    FidelityReport r;
    r.event_violation_fraction =
        synthesized.counted_events_
            ? static_cast<double>(synthesized.violating_events_) /
                  static_cast<double>(synthesized.counted_events_)
            : 0.0;
    r.stream_violation_fraction =
        synthesized.total_streams_
            ? static_cast<double>(synthesized.violating_streams_) /
                  static_cast<double>(synthesized.total_streams_)
            : 0.0;
    r.maxy_sojourn_connected = util::max_cdf_y_distance(synthesized.per_ue_mean_connected_,
                                                        real.per_ue_mean_connected_);
    r.maxy_sojourn_idle =
        util::max_cdf_y_distance(synthesized.per_ue_mean_idle_, real.per_ue_mean_idle_);
    r.maxy_flow_length_all = util::max_cdf_y_distance(synthesized.flow_all_, real.flow_all_);
    r.maxy_flow_length_srv_req =
        util::max_cdf_y_distance(synthesized.flow_srv_req_, real.flow_srv_req_);
    r.maxy_flow_length_s1_rel =
        util::max_cdf_y_distance(synthesized.flow_s1_rel_, real.flow_s1_rel_);

    const std::size_t vocab_size = cellular::vocabulary(synthesized.gen_).size();
    const auto ps = synthesized.event_counts_.normalized(vocab_size);
    const auto pr = real.event_counts_.normalized(vocab_size);
    r.breakdown_diff.resize(vocab_size, 0.0);
    for (std::size_t i = 0; i < vocab_size; ++i) r.breakdown_diff[i] = ps[i] - pr[i];
    return r;
}

FidelityAccumulator accumulate_fidelity(trace::ColumnarReader& reader, std::size_t sketch_k) {
    FidelityAccumulator acc(reader.generation(), sketch_k);
    reader.rewind();
    trace::StreamBatch batch;
    while (reader.next(batch)) acc.add(batch);
    return acc;
}

FidelityReport evaluate_fidelity_streaming(trace::ColumnarReader& synthesized,
                                           trace::ColumnarReader& real) {
    const auto acc_synth = accumulate_fidelity(synthesized);
    const auto acc_real = accumulate_fidelity(real);
    return evaluate_fidelity(acc_synth, acc_real);
}

std::string render_report(const FidelityReport& report, const trace::Dataset& reference) {
    return render_report(report, reference.generation);
}

std::string render_report(const FidelityReport& report, cellular::Generation generation) {
    const auto& vocab = cellular::vocabulary(generation);
    util::TextTable t({"metric", "value"});
    t.add_row({"event violations", util::fmt_pct(report.event_violation_fraction, 3)});
    t.add_row({"stream violations", util::fmt_pct(report.stream_violation_fraction, 2)});
    t.add_row({"max-y sojourn CONNECTED", util::fmt_pct(report.maxy_sojourn_connected, 1)});
    t.add_row({"max-y sojourn IDLE", util::fmt_pct(report.maxy_sojourn_idle, 1)});
    t.add_row({"max-y flow length (all)", util::fmt_pct(report.maxy_flow_length_all, 1)});
    // Event ids 2 and 3 are SRV_REQ and S1_CONN_REL in 4G, SRV_REQ and AN_REL
    // in 5G — the two dominant event types in either generation.
    t.add_row({"max-y flow length (" + vocab.name(cellular::lte::kSrvReq) + ")",
               util::fmt_pct(report.maxy_flow_length_srv_req, 1)});
    t.add_row({"max-y flow length (" + vocab.name(cellular::lte::kS1ConnRel) + ")",
               util::fmt_pct(report.maxy_flow_length_s1_rel, 1)});
    for (std::size_t i = 0; i < report.breakdown_diff.size(); ++i) {
        t.add_row({"breakdown diff " + vocab.name(static_cast<cellular::EventId>(i)),
                   util::fmt_pct(report.breakdown_diff[i], 2)});
    }
    return t.render();
}

}  // namespace cpt::metrics
