// Tests for the trace semantic linter: counts agree with hand-replayed
// streams and with metrics::evaluate_fidelity (which reads them from it),
// first-offender context is exact, and the text/JSON renderings carry the
// expected content.
#include <gtest/gtest.h>

#include <initializer_list>
#include <string>
#include <utility>

#include "lint/trace_lint.hpp"
#include "metrics/fidelity.hpp"
#include "trace/synthetic.hpp"

namespace cpt::lint {
namespace {

namespace lte = cellular::lte;

trace::Stream stream_of(std::string ue_id,
                        std::initializer_list<std::pair<double, cellular::EventId>> list) {
    trace::Stream s;
    s.ue_id = std::move(ue_id);
    for (const auto& [t, e] : list) s.events.push_back({t, e});
    return s;
}

trace::Dataset two_stream_dataset() {
    trace::Dataset ds;
    // Clean stream: bootstrap on SRV_REQ, then 3 counted events, 0 violations.
    ds.streams.push_back(stream_of("ue-clean", {{0, lte::kSrvReq},
                                                {5, lte::kS1ConnRel},
                                                {60, lte::kSrvReq},
                                                {70, lte::kS1ConnRel}}));
    // Dirty stream: the second S1_CONN_REL fires while idle -> violation.
    ds.streams.push_back(stream_of("ue-dirty", {{0, lte::kSrvReq},
                                                {5, lte::kS1ConnRel},
                                                {6, lte::kS1ConnRel}}));
    return ds;
}

TEST(TraceLintTest, CountsMatchHandReplay) {
    const auto ds = two_stream_dataset();
    const auto report = TraceLinter(ds.generation).lint(ds);

    EXPECT_EQ(report.total_streams, 2u);
    EXPECT_EQ(report.total_events, 7u);
    // One bootstrap event per stream is excluded from counting.
    EXPECT_EQ(report.counted_events, 5u);
    EXPECT_EQ(report.violating_events, 1u);
    EXPECT_EQ(report.violating_streams, 1u);
    EXPECT_EQ(report.unbootstrapped_streams, 0u);
    EXPECT_DOUBLE_EQ(report.event_fraction(), 0.2);
    EXPECT_DOUBLE_EQ(report.stream_fraction(), 0.5);

    const auto top = report.top_categories(3);
    ASSERT_EQ(top.size(), 1u);
    EXPECT_EQ(top[0].state, cellular::SubState::kIdleS1RelS);
    EXPECT_EQ(top[0].event, lte::kS1ConnRel);
    EXPECT_EQ(top[0].count, 1u);
    EXPECT_DOUBLE_EQ(top[0].event_fraction, 0.2);
}

// Equal counts rank by ascending (state, event) key.
TEST(TraceLintTest, TiedCategoriesRankByKey) {
    TraceLintReport report;
    const std::size_t num_events = cellular::vocabulary(report.generation).size();
    report.violations_by_state_event.assign(
        static_cast<std::size_t>(cellular::SubState::kNumSubStates) * num_events, 0);
    report.counted_events = 100;
    const auto key = [&](cellular::SubState s, cellular::EventId e) {
        return static_cast<std::size_t>(s) * num_events + e;
    };
    report.violations_by_state_event[key(cellular::SubState::kIdleS1RelS, lte::kS1ConnRel)] = 2;
    report.violations_by_state_event[key(cellular::SubState::kIdleS1RelS, lte::kSrvReq)] = 5;
    report.violations_by_state_event[key(cellular::SubState::kIdleS1RelS, lte::kAtch)] = 2;
    report.violations_by_state_event[key(cellular::SubState::kDeregistered, lte::kHo)] = 2;

    // Of the three tied at 2, the two lowest keys follow the 5, and the
    // highest (kIdleS1RelS, kS1ConnRel) is cut.
    const auto top = report.top_categories(3);
    ASSERT_EQ(top.size(), 3u);
    EXPECT_EQ(top[0].state, cellular::SubState::kIdleS1RelS);
    EXPECT_EQ(top[0].event, lte::kSrvReq);
    EXPECT_EQ(top[0].count, 5u);
    EXPECT_EQ(top[1].state, cellular::SubState::kDeregistered);
    EXPECT_EQ(top[1].event, lte::kHo);
    EXPECT_EQ(top[1].count, 2u);
    EXPECT_EQ(top[2].state, cellular::SubState::kIdleS1RelS);
    EXPECT_EQ(top[2].event, lte::kAtch);
    EXPECT_EQ(top[2].count, 2u);
}

TEST(TraceLintTest, FirstOffenderPinpointsEvent) {
    const auto ds = two_stream_dataset();
    const auto report = TraceLinter(ds.generation).lint(ds);

    ASSERT_TRUE(report.first_offender.has_value());
    const auto& fo = *report.first_offender;
    EXPECT_EQ(fo.stream_index, 1u);
    EXPECT_EQ(fo.ue_id, "ue-dirty");
    EXPECT_EQ(fo.event_index, 2u);
    EXPECT_DOUBLE_EQ(fo.timestamp, 6.0);
    EXPECT_EQ(fo.state, cellular::SubState::kIdleS1RelS);
    EXPECT_EQ(fo.event, lte::kS1ConnRel);
}

TEST(TraceLintTest, CleanDatasetHasNoOffenderOrCategories) {
    trace::Dataset ds;
    ds.streams.push_back(stream_of("ue-0", {{0, lte::kSrvReq}, {5, lte::kS1ConnRel}}));
    const auto report = TraceLinter(ds.generation).lint(ds);
    EXPECT_EQ(report.violating_events, 0u);
    EXPECT_FALSE(report.first_offender.has_value());
    EXPECT_TRUE(report.top_categories(3).empty());
}

TEST(TraceLintTest, UnbootstrappedStreamsAreTracked) {
    trace::Dataset ds;
    // kS1ConnRel never bootstraps an LTE machine: the whole stream is
    // pre-bootstrap, nothing is counted.
    ds.streams.push_back(stream_of("ue-lost", {{0, lte::kS1ConnRel}, {1, lte::kS1ConnRel}}));
    const auto report = TraceLinter(ds.generation).lint(ds);
    EXPECT_EQ(report.unbootstrapped_streams, 1u);
    EXPECT_EQ(report.counted_events, 0u);
    EXPECT_EQ(report.pre_bootstrap_events, 2u);
    EXPECT_EQ(report.violating_events, 0u);
}

TEST(TraceLintTest, PerUeSummariesWhenRequested) {
    const auto ds = two_stream_dataset();
    TraceLintConfig cfg;
    cfg.per_ue = true;
    const auto report = TraceLinter(ds.generation).lint(ds, cfg);

    ASSERT_EQ(report.per_ue.size(), 2u);
    EXPECT_EQ(report.per_ue[0].ue_id, "ue-clean");
    EXPECT_EQ(report.per_ue[0].events, 4u);
    EXPECT_EQ(report.per_ue[0].counted_events, 3u);
    EXPECT_EQ(report.per_ue[0].violations, 0u);
    EXPECT_TRUE(report.per_ue[0].bootstrapped);
    EXPECT_EQ(report.per_ue[1].ue_id, "ue-dirty");
    EXPECT_EQ(report.per_ue[1].violations, 1u);

    // Default config keeps the report light.
    const auto bulk = TraceLinter(ds.generation).lint(ds);
    EXPECT_TRUE(bulk.per_ue.empty());
}

TEST(TraceLintTest, AgreesWithMetricsSemanticViolations) {
    // evaluate_fidelity reads its two violation fractions from the linter;
    // pin the contract from the caller's side on a nontrivial synthetic
    // dataset with violating streams mixed in.
    trace::SyntheticWorldConfig cfg;
    cfg.population = {120, 40, 15};
    cfg.seed = 33;
    auto ds = trace::SyntheticWorldGenerator(cfg).generate();
    for (auto& s : two_stream_dataset().streams) ds.streams.push_back(std::move(s));

    const auto report = TraceLinter(ds.generation).lint(ds);
    ASSERT_GT(report.violating_events, 0u);
    const auto fidelity = metrics::evaluate_fidelity(ds, ds);
    EXPECT_EQ(fidelity.event_violation_fraction, report.event_fraction());
    EXPECT_EQ(fidelity.stream_violation_fraction, report.stream_fraction());
}

TEST(TraceLintTest, RenderMentionsTotalsAndCategories) {
    const auto ds = two_stream_dataset();
    TraceLintConfig cfg;
    cfg.per_ue = true;
    const auto report = TraceLinter(ds.generation).lint(ds, cfg);
    const std::string text = report.render();
    for (const char* needle :
         {"streams", "counted events", "S1_REL_S", "S1_CONN_REL", "ue-dirty"}) {
        EXPECT_NE(text.find(needle), std::string::npos) << needle << "\n" << text;
    }
}

TEST(TraceLintTest, JsonCarriesCountsAndOffender) {
    const auto ds = two_stream_dataset();
    const auto report = TraceLinter(ds.generation).lint(ds);
    const std::string json = report.to_json();
    for (const char* needle :
         {"\"streams\":2", "\"violating_events\":1", "\"first_offender\"",
          "\"ue_id\":\"ue-dirty\"", "\"top_categories\"", "\"S1_REL_S\""}) {
        EXPECT_NE(json.find(needle), std::string::npos) << needle << "\n" << json;
    }
    // A control character in a UE id is escaped (util::json_escape).
    auto odd = two_stream_dataset();
    odd.streams[1].ue_id = "ue-\r\x01" "dirty";
    const std::string odd_json = TraceLinter(odd.generation).lint(odd).to_json();
    EXPECT_NE(odd_json.find("\"ue_id\":\"ue-\\r\\u0001dirty\""), std::string::npos) << odd_json;
}

}  // namespace
}  // namespace cpt::lint
