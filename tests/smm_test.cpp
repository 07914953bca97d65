// Tests for the semi-Markov baseline: empirical CDFs, fitting, generation
// invariants (zero violations by construction), clustering, ensembles.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "lint/trace_lint.hpp"
#include "metrics/fidelity.hpp"
#include "smm/cluster.hpp"
#include "smm/ensemble.hpp"
#include "trace/synthetic.hpp"
#include "util/stats.hpp"

namespace cpt::smm {
namespace {

namespace lte = cellular::lte;

trace::Dataset phone_world(std::size_t n, std::uint64_t seed = 11) {
    trace::SyntheticWorldConfig cfg;
    cfg.population = {n, 0, 0};
    cfg.seed = seed;
    return trace::SyntheticWorldGenerator(cfg).generate();
}

TEST(EmpiricalCdfTest, SamplesWithinRangeAndDistributed) {
    EmpiricalCdf cdf({1.0, 2.0, 3.0, 4.0, 5.0});
    util::Rng rng(3);
    std::vector<double> draws(5000);
    for (auto& d : draws) {
        d = cdf.sample(rng);
        EXPECT_GE(d, 1.0);
        EXPECT_LE(d, 5.0);
    }
    // Mean of the interpolated inverse-CDF sampler is the sample mean.
    EXPECT_NEAR(util::summarize(draws).mean, 3.0, 0.1);
}

TEST(EmpiricalCdfTest, EdgeCases) {
    util::Rng rng(4);
    EmpiricalCdf empty;
    EXPECT_THROW(empty.sample(rng), std::logic_error);
    EmpiricalCdf single({7.0});
    EXPECT_DOUBLE_EQ(single.sample(rng), 7.0);
}

TEST(SemiMarkovTest, FitRejectsEmptyDataset) {
    trace::Dataset empty;
    EXPECT_THROW(SemiMarkovModel::fit(empty), std::invalid_argument);
}

TEST(SemiMarkovTest, GeneratedStreamsNeverViolate) {
    const auto world = phone_world(200);
    const auto model = SemiMarkovModel::fit(world);
    util::Rng rng(5);
    const auto generated = model.generate(300, rng);
    ASSERT_GT(generated.streams.size(), 250u);
    const auto v = lint::TraceLinter(generated.generation).lint(generated);
    EXPECT_EQ(v.violating_events, 0u);  // the machine is built in (paper §5.2.1)
    EXPECT_EQ(v.violating_streams, 0u);
}

TEST(SemiMarkovTest, LearnsEventBreakdown) {
    const auto world = phone_world(400);
    const auto model = SemiMarkovModel::fit(world);
    util::Rng rng(6);
    const auto generated = model.generate(400, rng);
    const auto real = world.event_type_breakdown();
    const auto synth = generated.event_type_breakdown();
    for (std::size_t e = 0; e < real.size(); ++e) {
        EXPECT_NEAR(synth[e], real[e], 0.05) << "event " << e;
    }
}

TEST(SemiMarkovTest, SojournsRoughlyMatchPooledDistribution) {
    const auto world = phone_world(400);
    const auto model = SemiMarkovModel::fit(world);
    util::Rng rng(7);
    const auto generated = model.generate(400, rng);
    const auto rs = metrics::collect_sojourns(world);
    const auto gs = metrics::collect_sojourns(generated);
    // Pooled sojourns are exactly what the SMM fits; the per-UE means are
    // what it misses (heterogeneity), so only the pooled check is tight.
    EXPECT_LT(util::max_cdf_y_distance(rs.connected, gs.connected), 0.15);
}

TEST(SemiMarkovTest, Smm1MissesPerUeHeterogeneity) {
    // The headline SMM-1 weakness (Table 6: flow-length max-y 44-60%): a
    // single model pools all UEs, so per-UE flow length and mean-sojourn
    // diversity collapse.
    const auto world = phone_world(400);
    const auto model = SemiMarkovModel::fit(world);
    util::Rng rng(8);
    const auto generated = model.generate(400, rng);
    const auto report = metrics::evaluate_fidelity(generated, world);
    EXPECT_GT(report.maxy_flow_length_all, 0.15)
        << "SMM-1 should visibly miss the flow-length distribution";
}

TEST(SemiMarkovTest, CountsCdfs) {
    const auto world = phone_world(150);
    const auto model = SemiMarkovModel::fit(world);
    EXPECT_GT(model.num_cdfs(), 5u);
    EXPECT_GT(model.num_fitted_streams(), 100u);
}

// FNV-1a 64 over every byte a generated dataset carries: ids, slice labels,
// timestamp bit patterns and event ids.
std::uint64_t fnv1a64(const trace::Dataset& ds) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    auto mix = [&](const void* p, std::size_t n) {
        const auto* b = static_cast<const unsigned char*>(p);
        for (std::size_t i = 0; i < n; ++i) h = (h ^ b[i]) * 0x100000001b3ULL;
    };
    for (const auto& s : ds.streams) {
        mix(s.ue_id.data(), s.ue_id.size());
        mix(&s.device, sizeof(s.device));
        mix(&s.hour_of_day, sizeof(s.hour_of_day));
        for (const auto& e : s.events) {
            std::uint64_t bits = 0;
            std::memcpy(&bits, &e.timestamp, sizeof(bits));
            mix(&bits, sizeof(bits));
            mix(&e.type, sizeof(e.type));
        }
    }
    return h;
}

// Pins the fitter's walk of the machine on streams with events before the
// bootstrap, illegal events after it, and one stream that never bootstraps:
// the first are skipped, the second leave the state as it was, the third
// fits nothing.
TEST(SemiMarkovTest, FitOnHandBuiltStreamsIsPinned) {
    trace::Dataset ds;
    const auto tablet = trace::DeviceType::kTablet;
    ds.streams.push_back({"s1", tablet, 7,
                          {{0.0, lte::kTau},
                           {3.0, lte::kS1ConnRel},
                           {10.0, lte::kSrvReq},
                           {12.0, lte::kSrvReq},
                           {20.0, lte::kTau},
                           {40.0, lte::kS1ConnRel},
                           {45.0, lte::kHo},
                           {100.0, lte::kSrvReq},
                           {110.0, lte::kHo},
                           {111.0, lte::kTau},
                           {200.0, lte::kS1ConnRel},
                           {260.0, lte::kTau},
                           {400.0, lte::kSrvReq}}});
    ds.streams.push_back({"s2", tablet, 7,
                          {{0.0, lte::kAtch},
                           {5.0, lte::kS1ConnRel},
                           {6.0, lte::kS1ConnRel},
                           {50.0, lte::kSrvReq},
                           {60.0, lte::kS1ConnRel},
                           {300.0, lte::kDtch}}});
    ds.streams.push_back({"s3", tablet, 7,
                          {{2.0, lte::kHo},
                           {3.0, lte::kTau},
                           {30.0, lte::kS1ConnRel},
                           {90.0, lte::kTau},
                           {190.0, lte::kTau},
                           {250.0, lte::kSrvReq},
                           {280.0, lte::kS1ConnRel}}});
    ds.streams.push_back({"s4", tablet, 7, {{1.0, lte::kS1ConnRel}, {4.0, lte::kTau}}});

    const auto model = SemiMarkovModel::fit(ds);
    EXPECT_EQ(model.num_fitted_streams(), 3u);
    EXPECT_EQ(model.num_cdfs(), 9u);
    util::Rng rng(2024);
    const auto generated = model.generate(40, rng, "pin");
    ASSERT_FALSE(generated.streams.empty());
    EXPECT_EQ(generated.streams.front().device, tablet);
    EXPECT_EQ(generated.streams.front().hour_of_day, 7);
    EXPECT_EQ(fnv1a64(generated), 0xec373e675cff02c5ULL) << std::hex << fnv1a64(generated);
}

TEST(ClusterTest, FeaturesReflectStreamShape) {
    trace::Stream s;
    s.events = {{0.0, lte::kSrvReq}, {5.0, lte::kS1ConnRel}, {50.0, lte::kSrvReq},
                {60.0, lte::kHo}, {61.0, lte::kTau}, {70.0, lte::kS1ConnRel}};
    const auto f = stream_features(s);
    EXPECT_NEAR(f[0], std::log(6.0), 1e-9);
    EXPECT_NEAR(f[2], 1.0 / 6.0, 1e-9);  // HO fraction
    EXPECT_GT(f[3], 0.0);                // has connected sojourns
}

TEST(ClusterTest, KmeansSeparatesShortAndLongFlows) {
    // Build a dataset with two obvious groups: very short vs very long flows.
    trace::Dataset ds;
    util::Rng rng(9);
    for (int i = 0; i < 40; ++i) {
        trace::Stream s;
        s.ue_id = "short" + std::to_string(i);
        double t = 0.0;
        for (int k = 0; k < 4; ++k) {
            s.events.push_back({t, k % 2 ? lte::kS1ConnRel : lte::kSrvReq});
            t += rng.uniform(1.0, 5.0);
        }
        ds.streams.push_back(s);
    }
    for (int i = 0; i < 40; ++i) {
        trace::Stream s;
        s.ue_id = "long" + std::to_string(i);
        double t = 0.0;
        for (int k = 0; k < 120; ++k) {
            s.events.push_back({t, k % 2 ? lte::kS1ConnRel : lte::kSrvReq});
            t += rng.uniform(10.0, 40.0);
        }
        ds.streams.push_back(s);
    }
    const auto c = kmeans_streams(ds, 2, rng);
    ASSERT_EQ(c.centroids.size(), 2u);
    // All short flows in one cluster, all long flows in the other.
    const std::size_t first_short = c.assignment[0];
    for (std::size_t i = 0; i < 40; ++i) EXPECT_EQ(c.assignment[i], first_short);
    const std::size_t first_long = c.assignment[40];
    EXPECT_NE(first_long, first_short);
    for (std::size_t i = 40; i < 80; ++i) EXPECT_EQ(c.assignment[i], first_long);
}

TEST(ClusterTest, ClampsKAndHandlesTinyDatasets) {
    const auto tiny = phone_world(5);
    util::Rng rng(10);
    const auto c = kmeans_streams(tiny, 50, rng);
    EXPECT_LE(c.centroids.size(), tiny.streams.size());
}

TEST(EnsembleTest, GeneratesValidStreamsAndBeatsSmm1OnFlowLength) {
    const auto world = phone_world(500);
    util::Rng rng(11);
    const auto ensemble = SmmEnsemble::fit(world, 24, rng);
    EXPECT_GT(ensemble.num_models(), 4u);
    EXPECT_GT(ensemble.num_cdfs(), ensemble.num_models());

    const auto smm1 = fit_smm1(world);
    util::Rng g1(12);
    util::Rng g2(12);
    const auto from_ensemble = ensemble.generate(400, g1);
    const auto from_smm1 = smm1.generate(400, g2);
    const auto v = lint::TraceLinter(from_ensemble.generation).lint(from_ensemble);
    EXPECT_EQ(v.violating_events, 0u);

    const auto re = metrics::evaluate_fidelity(from_ensemble, world);
    const auto r1 = metrics::evaluate_fidelity(from_smm1, world);
    // The cluster ensemble recovers flow-length diversity that SMM-1 loses
    // (the paper's SMM-20k vs SMM-1 contrast in Table 6).
    EXPECT_LT(re.maxy_flow_length_all, r1.maxy_flow_length_all);
}

}  // namespace
}  // namespace cpt::smm
