// Tests for the order-k Markov baseline.
#include <gtest/gtest.h>

#include "lint/trace_lint.hpp"
#include "metrics/fidelity.hpp"
#include "smm/markov.hpp"
#include "trace/synthetic.hpp"

namespace cpt::smm {
namespace {

trace::Dataset phone_world(std::size_t n, std::uint64_t seed = 91) {
    trace::SyntheticWorldConfig cfg;
    cfg.population = {n, 0, 0};
    cfg.seed = seed;
    return trace::SyntheticWorldGenerator(cfg).generate();
}

TEST(MarkovTest, FitValidation) {
    trace::Dataset empty;
    EXPECT_THROW(MarkovGenerator::fit(empty), std::invalid_argument);
    const auto world = phone_world(20);
    MarkovGenerator::Config cfg;
    cfg.order = 0;
    EXPECT_THROW(MarkovGenerator::fit(world, cfg), std::invalid_argument);
    cfg.order = 9;
    EXPECT_THROW(MarkovGenerator::fit(world, cfg), std::invalid_argument);
}

TEST(MarkovTest, GeneratesWellFormedStreams) {
    const auto world = phone_world(200);
    const auto model = MarkovGenerator::fit(world);
    EXPECT_GT(model.num_contexts(), 3u);
    util::Rng rng(92);
    const auto ds = model.generate(150, rng);
    EXPECT_GT(ds.streams.size(), 120u);
    for (const auto& s : ds.streams) {
        EXPECT_GE(s.length(), 2u);
        double prev = 0.0;
        for (const auto& e : s.events) {
            EXPECT_GE(e.timestamp, prev);
            prev = e.timestamp;
        }
        EXPECT_LE(prev, 3600.0 + 1e-9);
    }
}

TEST(MarkovTest, LearnsBreakdownButOrder1Violates) {
    // A Markov chain captures the event marginal well, but with bounded
    // memory and no state machine it emits semantic violations wherever the
    // context under-determines the UE state. Order 1 is maximally ambiguous
    // (a single TAU could have happened CONNECTED or IDLE), so violations
    // are guaranteed to appear there; the SMM by construction emits none.
    const auto world = phone_world(400);
    const auto markov2 = MarkovGenerator::fit(world);
    util::Rng rng(93);
    const auto synth2 = markov2.generate(300, rng);

    const auto real_p = world.event_type_breakdown();
    const auto synth_p = synth2.event_type_breakdown();
    for (std::size_t e = 0; e < real_p.size(); ++e) {
        EXPECT_NEAR(synth_p[e], real_p[e], 0.06) << "event " << e;
    }

    MarkovGenerator::Config c1;
    c1.order = 1;
    const auto markov1 = MarkovGenerator::fit(world, c1);
    util::Rng rng1(94);
    const auto synth1 = markov1.generate(300, rng1);
    const auto v = lint::TraceLinter(synth1.generation).lint(synth1);
    EXPECT_GT(v.counted_events, 1000u);
    EXPECT_GT(v.event_fraction(), 0.0);
}

TEST(MarkovTest, HigherOrderReducesViolations) {
    const auto world = phone_world(400, 95);
    MarkovGenerator::Config c1;
    c1.order = 1;
    MarkovGenerator::Config c3;
    c3.order = 3;
    const auto m1 = MarkovGenerator::fit(world, c1);
    const auto m3 = MarkovGenerator::fit(world, c3);
    util::Rng g1(96);
    util::Rng g3(96);
    const lint::TraceLinter linter(world.generation);
    const double v1 = linter.lint(m1.generate(300, g1)).event_fraction();
    const double v3 = linter.lint(m3.generate(300, g3)).event_fraction();
    // More context -> fewer illegal transitions (longer dependencies are the
    // whole reason the paper reaches for attention).
    EXPECT_LE(v3, v1 + 0.01);
}

TEST(MarkovTest, MissesPerUeDiversity) {
    // Like SMM-1, a single pooled chain collapses per-UE heterogeneity: the
    // flow-length distribution is visibly off.
    const auto world = phone_world(400, 97);
    const auto model = MarkovGenerator::fit(world);
    util::Rng rng(98);
    const auto synth = model.generate(300, rng);
    const auto report = metrics::evaluate_fidelity(synth, world);
    EXPECT_GT(report.maxy_flow_length_all, 0.10);
}

}  // namespace
}  // namespace cpt::smm
