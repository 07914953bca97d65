// Tests for the toy MCN simulator (downstream consumer of synthesized traces).
#include <gtest/gtest.h>

#include "mcn/simulator.hpp"
#include "trace/synthetic.hpp"

namespace cpt::mcn {
namespace {

namespace lte = cellular::lte;

trace::Dataset world(std::size_t phones, std::uint64_t seed = 51) {
    trace::SyntheticWorldConfig cfg;
    cfg.population = {phones, 0, 0};
    cfg.seed = seed;
    return trace::SyntheticWorldGenerator(cfg).generate();
}

TEST(NfCostModelTest, AttachIsTheHeaviestProcedure) {
    const NfCostModel m;
    EXPECT_GT(m.service_us(lte::kAtch), m.service_us(lte::kSrvReq));
    EXPECT_GT(m.service_us(lte::kHo), m.service_us(lte::kS1ConnRel));
}

TEST(NfCostModelTest, MessageDerivedCostsPreserveProcedureOrdering) {
    const auto m = NfCostModel::from_messages(cellular::Generation::kLte4G, 50.0);
    // Derived from TS 23.401 message counts: attach > service request >
    // release; everything positive.
    EXPECT_GT(m.atch_us, m.srv_req_us);
    EXPECT_GT(m.srv_req_us, m.s1_rel_us * 0.5);
    for (double c : {m.atch_us, m.dtch_us, m.srv_req_us, m.s1_rel_us, m.ho_us, m.tau_us}) {
        EXPECT_GT(c, 0.0);
    }
    // Scaling is linear in the per-message cost.
    const auto m2 = NfCostModel::from_messages(cellular::Generation::kLte4G, 100.0);
    EXPECT_NEAR(m2.atch_us, 2.0 * m.atch_us, 1e-9);
}

TEST(SimulatorTest, EmptyDatasetYieldsEmptyReport) {
    trace::Dataset empty;
    const auto r = simulate(empty);
    EXPECT_EQ(r.events_processed, 0u);
}

TEST(SimulatorTest, ProcessesEveryEvent) {
    const auto ds = world(100);
    const auto r = simulate(ds);
    EXPECT_EQ(r.events_processed, ds.total_events());
    EXPECT_GT(r.makespan_s, 100.0);
    EXPECT_GT(r.latency_p50_ms, 0.0);
    EXPECT_LE(r.latency_p50_ms, r.latency_p95_ms);
    EXPECT_LE(r.latency_p95_ms, r.latency_p99_ms);
    EXPECT_GT(r.peak_connected_ues, 0u);
    EXPECT_LE(r.peak_connected_ues, ds.streams.size());
}

// Hand-built LTE streams whose CONNECTED intervals are known exactly:
//   a: TAU before bootstrap, SRV_REQ boots CONNECTED at 10, an illegal
//      SRV_REQ at 20 stays put, release at 30; SRV_REQ 40, DTCH 100
//      -> [10,30) and [40,100)
//   b: ATCH boots CONNECTED at 5, HO/TAU stay CONNECTED, release at 50
//      -> [5,50)
//   c: S1_CONN_REL before bootstrap, SRV_REQ at 35, still CONNECTED at its
//      last event (120) -> [35,120)
// Three intervals overlap on [40,50).
TEST(SimulatorTest, PeakConnectedUesFollowsTheReplayRule) {
    trace::Dataset ds;
    ds.streams.push_back({"a", trace::DeviceType::kPhone, 0,
                          {{0.0, lte::kTau},
                           {10.0, lte::kSrvReq},
                           {20.0, lte::kSrvReq},
                           {30.0, lte::kS1ConnRel},
                           {40.0, lte::kSrvReq},
                           {100.0, lte::kDtch}}});
    ds.streams.push_back({"b", trace::DeviceType::kPhone, 0,
                          {{5.0, lte::kAtch},
                           {25.0, lte::kHo},
                           {26.0, lte::kTau},
                           {50.0, lte::kS1ConnRel}}});
    ds.streams.push_back({"c", trace::DeviceType::kPhone, 0,
                          {{15.0, lte::kS1ConnRel},
                           {35.0, lte::kSrvReq},
                           {45.0, lte::kHo},
                           {120.0, lte::kTau}}});
    EXPECT_EQ(simulate(ds).peak_connected_ues, 3u);

    // Without c the peak is 2; dropping b's release keeps it open to its
    // last event (26) and leaves the peak at 2.
    ds.streams.pop_back();
    EXPECT_EQ(simulate(ds).peak_connected_ues, 2u);
    ds.streams[1].events.pop_back();
    EXPECT_EQ(simulate(ds).peak_connected_ues, 2u);
    // a alone never holds two intervals at once.
    ds.streams.pop_back();
    EXPECT_EQ(simulate(ds).peak_connected_ues, 1u);
}

TEST(SimulatorTest, FewerWorkersRaiseLatency) {
    const auto ds = world(300);
    McnConfig scarce;
    scarce.workers = 1;
    scarce.stochastic_service = false;
    // Inflate costs so a single worker is meaningfully loaded.
    scarce.costs.srv_req_us = 50000.0;
    scarce.costs.s1_rel_us = 50000.0;
    McnConfig ample = scarce;
    ample.workers = 16;
    const auto r1 = simulate(ds, scarce);
    const auto r2 = simulate(ds, ample);
    EXPECT_GT(r1.latency_p95_ms, r2.latency_p95_ms);
    EXPECT_GT(r1.mean_utilization, r2.mean_utilization);
}

TEST(SimulatorTest, AutoscalerReactsToLoad) {
    const auto ds = world(400);
    McnConfig cfg;
    cfg.workers = 1;
    cfg.autoscale = true;
    cfg.autoscale_interval_s = 120.0;
    cfg.target_utilization = 0.3;
    // Heavy procedures so a single worker saturates and the scaler must act.
    cfg.costs.srv_req_us = 200000.0;
    cfg.costs.s1_rel_us = 200000.0;
    const auto r = simulate(ds, cfg);
    EXPECT_GT(r.worker_trajectory.size(), 1u) << "autoscaler should have acted";
}

TEST(SimulatorTest, DeterministicWithoutStochasticService) {
    const auto ds = world(80);
    McnConfig cfg;
    cfg.stochastic_service = false;
    const auto a = simulate(ds, cfg);
    const auto b = simulate(ds, cfg);
    EXPECT_DOUBLE_EQ(a.latency_p99_ms, b.latency_p99_ms);
    EXPECT_EQ(a.peak_connected_ues, b.peak_connected_ues);
}

TEST(SimulatorTest, RejectsZeroWorkers) {
    McnConfig cfg;
    cfg.workers = 0;
    EXPECT_THROW(simulate(world(10), cfg), std::invalid_argument);
}

TEST(SimulatorTest, MessageDerivedCostsDriveSimulation) {
    const auto ds = world(60);
    McnConfig cfg;
    cfg.costs = NfCostModel::from_messages(cellular::Generation::kLte4G, 2000.0);
    cfg.stochastic_service = false;
    const auto r = simulate(ds, cfg);
    EXPECT_EQ(r.events_processed, ds.total_events());
    EXPECT_GT(r.latency_p50_ms, 0.0);
}

TEST(SimulatorTest, RenderIncludesKeyRows) {
    const auto r = simulate(world(50));
    const std::string text = r.render();
    EXPECT_NE(text.find("latency p99"), std::string::npos);
    EXPECT_NE(text.find("peak CONNECTED UEs"), std::string::npos);
}

}  // namespace
}  // namespace cpt::mcn
