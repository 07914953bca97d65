// Tests for the event vocabularies, the two-level 3GPP state machines, and
// the replay/validation engine, including randomized property tests.
#include <gtest/gtest.h>

#include "cellular/state_machine.hpp"
#include "lint/trace_lint.hpp"
#include "util/rng.hpp"

namespace cpt::cellular {
namespace {

using enum SubState;

TEST(VocabularyTest, LteNamesAndIds) {
    const auto& v = vocabulary(Generation::kLte4G);
    EXPECT_EQ(v.size(), 6u);
    EXPECT_EQ(v.name(lte::kSrvReq), "SRV_REQ");
    EXPECT_EQ(v.name(lte::kS1ConnRel), "S1_CONN_REL");
    EXPECT_EQ(v.id("TAU"), lte::kTau);
    EXPECT_FALSE(v.id("REGISTER").has_value());
    EXPECT_THROW(v.name(99), std::out_of_range);
}

TEST(VocabularyTest, NrHasNoTau) {
    const auto& v = vocabulary(Generation::kNr5G);
    EXPECT_EQ(v.size(), 5u);
    EXPECT_FALSE(v.id("TAU").has_value());
    EXPECT_EQ(v.name(nr::kAnRel), "AN_REL");
}

TEST(StateMachineTest, TopStateMapping) {
    EXPECT_EQ(top_state_of(kConnActive), TopState::kConnected);
    EXPECT_EQ(top_state_of(kConnAfterHo), TopState::kConnected);
    EXPECT_EQ(top_state_of(kIdleS1RelS), TopState::kIdle);
    EXPECT_EQ(top_state_of(kIdleTauS), TopState::kIdle);
    EXPECT_EQ(top_state_of(kDeregistered), TopState::kDeregistered);
}

TEST(StateMachineTest, LteBasicCycle) {
    const auto& m = StateMachine::for_generation(Generation::kLte4G);
    // DEREG -ATCH-> CONN -S1_REL-> IDLE -SRV_REQ-> CONN -DTCH-> DEREG
    auto s = m.step(kDeregistered, lte::kAtch);
    ASSERT_TRUE(s);
    EXPECT_EQ(*s, kConnActive);
    s = m.step(*s, lte::kS1ConnRel);
    ASSERT_TRUE(s);
    EXPECT_EQ(*s, kIdleS1RelS);
    s = m.step(*s, lte::kSrvReq);
    ASSERT_TRUE(s);
    EXPECT_EQ(*s, kConnActive);
    s = m.step(*s, lte::kDtch);
    ASSERT_TRUE(s);
    EXPECT_EQ(*s, kDeregistered);
}

TEST(StateMachineTest, PaperViolationRulesHold) {
    const auto& m = StateMachine::for_generation(Generation::kLte4G);
    // Table 3's top violation categories must indeed be violations:
    EXPECT_FALSE(m.step(kIdleS1RelS, lte::kS1ConnRel));  // (S1_REL_S, S1_CONN_REL)
    EXPECT_FALSE(m.step(kIdleS1RelS, lte::kHo));         // (S1_REL_S, HO)
    EXPECT_FALSE(m.step(kConnActive, lte::kSrvReq));     // (CONNECTED, SRV_REQ)
    // Double attach and detach-while-deregistered are violations.
    EXPECT_FALSE(m.step(kConnActive, lte::kAtch));
    EXPECT_FALSE(m.step(kDeregistered, lte::kDtch));
    EXPECT_FALSE(m.step(kDeregistered, lte::kSrvReq));
}

TEST(StateMachineTest, HandoverSubstate) {
    const auto& m = StateMachine::for_generation(Generation::kLte4G);
    auto s = m.step(kConnActive, lte::kHo);
    ASSERT_TRUE(s);
    EXPECT_EQ(*s, kConnAfterHo);
    // TAU completes the handover back to CONN_ACTIVE.
    auto s2 = m.step(*s, lte::kTau);
    ASSERT_TRUE(s2);
    EXPECT_EQ(*s2, kConnActive);
    // Chained handovers stay in the handover sub-state.
    auto s3 = m.step(*s, lte::kHo);
    ASSERT_TRUE(s3);
    EXPECT_EQ(*s3, kConnAfterHo);
}

TEST(StateMachineTest, BootstrapHeuristic) {
    const auto& m = StateMachine::for_generation(Generation::kLte4G);
    EXPECT_EQ(m.bootstrap_state(lte::kAtch), kConnActive);
    EXPECT_EQ(m.bootstrap_state(lte::kDtch), kDeregistered);
    EXPECT_EQ(m.bootstrap_state(lte::kSrvReq), kConnActive);
    EXPECT_EQ(m.bootstrap_state(lte::kHo), kConnAfterHo);
    // TAU and S1_CONN_REL destinations depend on the source state.
    EXPECT_FALSE(m.bootstrap_state(lte::kTau));
    EXPECT_FALSE(m.bootstrap_state(lte::kS1ConnRel));
}

TEST(StateMachineTest, NrMachineRejectsReleaseWhileIdle) {
    const auto& m = StateMachine::for_generation(Generation::kNr5G);
    auto s = m.step(kDeregistered, nr::kRegister);
    ASSERT_TRUE(s);
    auto idle = m.step(*s, nr::kAnRel);
    ASSERT_TRUE(idle);
    EXPECT_FALSE(m.step(*idle, nr::kAnRel));
    EXPECT_FALSE(m.step(*idle, nr::kHo));
    EXPECT_TRUE(m.step(*idle, nr::kSrvReq));
}

TEST(StateMachineTest, EveryEventIsLegalSomewhere) {
    for (const auto gen : {Generation::kLte4G, Generation::kNr5G}) {
        const auto& m = StateMachine::for_generation(gen);
        for (std::size_t e = 0; e < m.num_events(); ++e) {
            EXPECT_TRUE(m.event_ever_legal(static_cast<EventId>(e)))
                << "generation " << static_cast<int>(gen) << " event " << e;
        }
    }
}

// ---- Replayer -----------------------------------------------------------------

std::vector<ControlEvent> make_events(std::initializer_list<std::pair<double, EventId>> list) {
    std::vector<ControlEvent> out;
    for (auto& [t, e] : list) out.push_back({t, e});
    return out;
}

TEST(ReplayerTest, ValidStreamHasNoViolations) {
    const auto& m = StateMachine::for_generation(Generation::kLte4G);
    StateMachineReplayer rep(m);
    const auto events = make_events({{0.0, lte::kSrvReq},
                                     {10.0, lte::kS1ConnRel},
                                     {100.0, lte::kSrvReq},
                                     {112.0, lte::kHo},
                                     {113.0, lte::kTau},
                                     {130.0, lte::kS1ConnRel}});
    const auto r = rep.replay(events);
    EXPECT_TRUE(r.bootstrapped);
    EXPECT_EQ(r.violations, 0u);
    EXPECT_EQ(r.counted_events, 5u);  // bootstrap event excluded
    // Sojourns: CONNECTED 0->10 (10s), IDLE 10->100 (90s), CONNECTED 100->130 (30s).
    ASSERT_EQ(r.sojourn_connected.size(), 2u);
    EXPECT_DOUBLE_EQ(r.sojourn_connected[0], 10.0);
    EXPECT_DOUBLE_EQ(r.sojourn_connected[1], 30.0);
    ASSERT_EQ(r.sojourn_idle.size(), 1u);
    EXPECT_DOUBLE_EQ(r.sojourn_idle[0], 90.0);
}

TEST(ReplayerTest, ViolationCountedAndStateRetained) {
    const auto& m = StateMachine::for_generation(Generation::kLte4G);
    StateMachineReplayer rep(m);
    // SRV_REQ while already connected is the (CONNECTED, SRV_REQ) violation;
    // the machine stays CONNECTED, so the following S1_CONN_REL is legal.
    const auto events = make_events(
        {{0.0, lte::kSrvReq}, {5.0, lte::kSrvReq}, {9.0, lte::kS1ConnRel}});
    const auto r = rep.replay(events);
    EXPECT_EQ(r.violations, 1u);
    EXPECT_EQ(r.counted_events, 2u);
    const std::size_t key =
        static_cast<std::size_t>(kConnActive) * m.num_events() + lte::kSrvReq;
    EXPECT_EQ(r.violation_by_state_event[key], 1u);
    EXPECT_EQ(top_state_of(r.final_state), TopState::kIdle);
}

TEST(ReplayerTest, PreBootstrapEventsExcluded) {
    const auto& m = StateMachine::for_generation(Generation::kLte4G);
    StateMachineReplayer rep(m);
    // TAU and S1_CONN_REL cannot bootstrap; SRV_REQ can.
    const auto events = make_events(
        {{0.0, lte::kTau}, {1.0, lte::kS1ConnRel}, {2.0, lte::kSrvReq}, {3.0, lte::kS1ConnRel}});
    const auto r = rep.replay(events);
    EXPECT_EQ(r.pre_bootstrap_events, 2u);
    EXPECT_EQ(r.counted_events, 1u);
    EXPECT_EQ(r.violations, 0u);
}

TEST(ReplayerTest, NeverBootstrapsOnUnbootstrappableStream) {
    const auto& m = StateMachine::for_generation(Generation::kLte4G);
    StateMachineReplayer rep(m);
    const auto events = make_events({{0.0, lte::kTau}, {5.0, lte::kTau}});
    const auto r = rep.replay(events);
    EXPECT_FALSE(r.bootstrapped);
    EXPECT_EQ(r.pre_bootstrap_events, 2u);
    EXPECT_EQ(r.counted_events, 0u);
}

// Property: replaying a random LEGAL walk produces zero violations, and the
// recorded sojourn intervals sum to the span between the first and the last
// top-state change.
class ReplayerPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ReplayerPropertyTest, LegalWalksReplayCleanly) {
    const auto& m = StateMachine::for_generation(Generation::kLte4G);
    util::Rng rng(GetParam());
    // Random walk over legal transitions starting from a bootstrap event.
    std::vector<ControlEvent> events;
    SubState state = kConnActive;
    events.push_back({0.0, lte::kSrvReq});
    double t = 0.0;
    const std::size_t steps = 5 + rng.uniform_index(120);
    for (std::size_t i = 0; i < steps; ++i) {
        std::vector<EventId> legal;
        for (std::size_t e = 0; e < m.num_events(); ++e) {
            if (m.step(state, static_cast<EventId>(e))) legal.push_back(static_cast<EventId>(e));
        }
        ASSERT_FALSE(legal.empty());
        const EventId ev = legal[rng.uniform_index(legal.size())];
        t += rng.uniform(0.1, 60.0);
        events.push_back({t, ev});
        state = *m.step(state, ev);
    }
    StateMachineReplayer rep(m);
    const auto r = rep.replay(events);
    EXPECT_TRUE(r.bootstrapped);
    EXPECT_EQ(r.violations, 0u);
    EXPECT_EQ(r.counted_events, events.size() - 1);
    double sojourn_total = 0.0;
    for (double s : r.sojourn_connected) sojourn_total += s;
    for (double s : r.sojourn_idle) sojourn_total += s;
    for (double s : r.sojourn_deregistered) sojourn_total += s;
    EXPECT_LE(sojourn_total, t + 1e-9);
    for (double s : r.sojourn_connected) EXPECT_GE(s, 0.0);
    for (double s : r.sojourn_idle) EXPECT_GE(s, 0.0);
}

INSTANTIATE_TEST_SUITE_P(RandomWalks, ReplayerPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233));

// Property: injecting a single illegal event into a legal stream yields
// exactly one violation and leaves subsequent replay consistent.
class ViolationInjectionTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ViolationInjectionTest, SingleInjectionCountsOnce) {
    const auto& m = StateMachine::for_generation(Generation::kLte4G);
    util::Rng rng(GetParam() * 7919);
    std::vector<ControlEvent> events;
    SubState state = kConnActive;
    events.push_back({0.0, lte::kSrvReq});
    double t = 0.0;
    bool injected = false;
    SubState injected_in = kConnActive;
    EventId injected_event = 0;
    for (std::size_t i = 0; i < 60; ++i) {
        std::vector<EventId> legal;
        std::vector<EventId> illegal;
        for (std::size_t e = 0; e < m.num_events(); ++e) {
            if (m.step(state, static_cast<EventId>(e))) {
                legal.push_back(static_cast<EventId>(e));
            } else {
                illegal.push_back(static_cast<EventId>(e));
            }
        }
        t += rng.uniform(0.1, 30.0);
        if (!injected && i == 30 && !illegal.empty()) {
            injected_event = illegal[rng.uniform_index(illegal.size())];
            injected_in = state;
            events.push_back({t, injected_event});
            injected = true;  // state unchanged: replayer stays put on violation
            continue;
        }
        const EventId ev = legal[rng.uniform_index(legal.size())];
        events.push_back({t, ev});
        state = *m.step(state, ev);
    }
    ASSERT_TRUE(injected);
    StateMachineReplayer rep(m);
    const auto r = rep.replay(events);
    EXPECT_EQ(r.violations, 1u);
    ASSERT_TRUE(r.first_violation.has_value());
    EXPECT_EQ(r.first_violation->event_index, 31u);
    EXPECT_EQ(r.first_violation->state, injected_in);

    // The linter names the injected event as the first offender: index 31
    // (the bootstrap SRV_REQ is event 0, the injection is loop step 30).
    trace::Dataset ds;
    ds.streams.push_back({"ue-injected", trace::DeviceType::kPhone, 0, events});
    const auto report = lint::TraceLinter(Generation::kLte4G).lint(ds);
    ASSERT_TRUE(report.first_offender.has_value());
    EXPECT_EQ(report.first_offender->stream_index, 0u);
    EXPECT_EQ(report.first_offender->event_index, 31u);
    EXPECT_EQ(report.first_offender->timestamp, events[31].timestamp);
    EXPECT_EQ(report.first_offender->state, injected_in);
    EXPECT_EQ(report.first_offender->event, injected_event);
}

INSTANTIATE_TEST_SUITE_P(Injections, ViolationInjectionTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace cpt::cellular
