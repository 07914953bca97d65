// Tests for the fidelity metric suite against hand-constructed datasets with
// known violation counts and distributions.
#include <gtest/gtest.h>

#include "lint/trace_lint.hpp"
#include "metrics/fidelity.hpp"
#include "trace/synthetic.hpp"

namespace cpt::metrics {
namespace {

namespace lte = cellular::lte;

trace::Stream stream_of(std::initializer_list<std::pair<double, cellular::EventId>> list) {
    trace::Stream s;
    static int counter = 0;
    // Built via insert rather than "m" + to_string(...): GCC 12's -Wrestrict
    // false-fires on the inlined string operator+ at -O3.
    std::string id = std::to_string(counter++);
    id.insert(0, 1, 'm');
    s.ue_id = std::move(id);
    for (auto& [t, e] : list) s.events.push_back({t, e});
    return s;
}

TEST(ViolationsTest, CountsEventsAndStreams) {
    trace::Dataset ds;
    // Clean stream: 3 counted events, 0 violations.
    ds.streams.push_back(stream_of({{0, lte::kSrvReq},
                                    {5, lte::kS1ConnRel},
                                    {60, lte::kSrvReq},
                                    {70, lte::kS1ConnRel}}));
    // Dirty stream: (S1_REL_S, S1_CONN_REL) violation.
    ds.streams.push_back(stream_of({{0, lte::kSrvReq},
                                    {5, lte::kS1ConnRel},
                                    {6, lte::kS1ConnRel}}));
    const auto v = lint::TraceLinter(ds.generation).lint(ds);
    EXPECT_EQ(v.total_streams, 2u);
    EXPECT_EQ(v.violating_streams, 1u);
    EXPECT_EQ(v.counted_events, 5u);  // 3 + 2 (bootstrap events excluded)
    EXPECT_EQ(v.violating_events, 1u);
    EXPECT_DOUBLE_EQ(v.stream_fraction(), 0.5);
    EXPECT_DOUBLE_EQ(v.event_fraction(), 0.2);
    const auto cats = v.top_categories(3);
    ASSERT_FALSE(cats.empty());
    EXPECT_EQ(to_string(cats[0].state), "S1_REL_S");
    EXPECT_EQ(cellular::vocabulary(ds.generation).name(cats[0].event), "S1_CONN_REL");
}

TEST(ViolationsTest, TopCategoriesSorted) {
    trace::Dataset ds;
    // Two (S1_REL_S, HO) violations, one (CONNECTED, SRV_REQ).
    ds.streams.push_back(stream_of(
        {{0, lte::kSrvReq}, {1, lte::kS1ConnRel}, {2, lte::kHo}, {3, lte::kHo}}));
    ds.streams.push_back(stream_of({{0, lte::kSrvReq}, {1, lte::kSrvReq}}));
    const auto cats = lint::TraceLinter(ds.generation).lint(ds).top_categories(3);
    ASSERT_GE(cats.size(), 2u);
    EXPECT_EQ(to_string(cats[0].state), "S1_REL_S");
    EXPECT_EQ(cellular::vocabulary(ds.generation).name(cats[0].event), "HO");
    EXPECT_GE(cats[0].event_fraction, cats[1].event_fraction);
}

TEST(SojournTest, PerUeMeansMatchHandComputation) {
    trace::Dataset ds;
    // CONNECTED sojourns: 10 and 30 -> per-UE mean 20; IDLE: 90.
    ds.streams.push_back(stream_of({{0, lte::kSrvReq},
                                    {10, lte::kS1ConnRel},
                                    {100, lte::kSrvReq},
                                    {130, lte::kS1ConnRel},
                                    {200, lte::kSrvReq}}));
    const auto s = collect_sojourns(ds);
    ASSERT_EQ(s.connected.size(), 2u);
    ASSERT_EQ(s.per_ue_mean_connected.size(), 1u);
    EXPECT_DOUBLE_EQ(s.per_ue_mean_connected[0], 20.0);
    ASSERT_EQ(s.per_ue_mean_idle.size(), 1u);
    EXPECT_DOUBLE_EQ(s.per_ue_mean_idle[0], 80.0);  // 10->100 (90) and 130->200 (70)
}

TEST(FidelityReportTest, IdenticalDatasetsScoreNearZero) {
    trace::SyntheticWorldConfig cfg;
    cfg.population = {150, 0, 0};
    cfg.seed = 77;
    const auto ds = trace::SyntheticWorldGenerator(cfg).generate();
    const auto r = evaluate_fidelity(ds, ds);
    EXPECT_DOUBLE_EQ(r.event_violation_fraction, 0.0);
    EXPECT_DOUBLE_EQ(r.stream_violation_fraction, 0.0);
    EXPECT_DOUBLE_EQ(r.maxy_sojourn_connected, 0.0);
    EXPECT_DOUBLE_EQ(r.maxy_flow_length_all, 0.0);
    EXPECT_DOUBLE_EQ(r.max_breakdown_diff(), 0.0);
}

TEST(FidelityReportTest, TwoSeedsOfSameWorldScoreLow) {
    // Sampling noise floor: two independent draws from the same world should
    // have small (but nonzero) distances. This pins the metric scale.
    trace::SyntheticWorldConfig cfg;
    cfg.population = {400, 0, 0};
    cfg.seed = 1;
    const auto a = trace::SyntheticWorldGenerator(cfg).generate();
    cfg.seed = 2;
    const auto b = trace::SyntheticWorldGenerator(cfg).generate();
    const auto r = evaluate_fidelity(a, b);
    EXPECT_LT(r.maxy_sojourn_connected, 0.12);
    EXPECT_LT(r.maxy_sojourn_idle, 0.12);
    EXPECT_LT(r.maxy_flow_length_all, 0.12);
    EXPECT_LT(r.max_breakdown_diff(), 0.03);
    EXPECT_DOUBLE_EQ(r.event_violation_fraction, 0.0);
}

TEST(FidelityReportTest, DetectsDistributionShift) {
    trace::SyntheticWorldConfig cfg;
    cfg.population = {200, 0, 0};
    cfg.seed = 5;
    const auto phones = trace::SyntheticWorldGenerator(cfg).generate();
    cfg.population = {0, 200, 0};
    const auto cars = trace::SyntheticWorldGenerator(cfg).generate();
    const auto r = evaluate_fidelity(cars, phones);
    // Cars and phones differ in all dimensions.
    EXPECT_GT(r.maxy_sojourn_idle + r.maxy_sojourn_connected, 0.25);
    EXPECT_GT(r.max_breakdown_diff(), 0.02);
}

TEST(FidelityReportTest, RenderMentionsAllMetrics) {
    trace::SyntheticWorldConfig cfg;
    cfg.population = {50, 0, 0};
    const auto ds = trace::SyntheticWorldGenerator(cfg).generate();
    const auto r = evaluate_fidelity(ds, ds);
    const std::string text = render_report(r, ds);
    for (const char* needle : {"event violations", "sojourn CONNECTED", "flow length",
                               "SRV_REQ", "S1_CONN_REL"}) {
        EXPECT_NE(text.find(needle), std::string::npos) << needle;
    }
}

}  // namespace
}  // namespace cpt::metrics
