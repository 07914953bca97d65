// Two-level hierarchical UE state machines for 4G and 5G (paper Fig. 1,
// originally derived in the SMM paper [Meng et al., IMC'23]).
//
// The top level merges the EMM/ECM (4G) or RM/CM (5G) machines into three UE
// states: DEREGISTERED, CONNECTED, IDLE. The bottom level refines CONNECTED
// and IDLE with sub-states that capture event dependences the top level
// cannot express. Fig. 1 is only available as an image in the paper; the
// machines below are reconstructed from the paper's explicit textual
// constraints, which pin down every rule the evaluation relies on:
//   * the top-3 violation categories of Table 3 — (S1_REL_S, S1_CONN_REL),
//     (S1_REL_S, HO), (CONNECTED, SRV_REQ) — imply that S1_REL_S is the IDLE
//     sub-state entered via S1_CONN_REL, from which neither another release
//     nor a handover is legal, and that SRV_REQ is illegal while CONNECTED;
//   * "HO is always followed by TAU in the CONNECTED state" (§5.6) motivates
//     the CONN_AFTER_HO sub-state;
//   * the bootstrap heuristic (§5.2.1) requires ATCH, DTCH, SRV_REQ and HO to
//     have source-independent destination states.
//
// walk() below is the one place that replays a recorded stream through a
// machine (§5.2.1): the replayer, the trace linter, the SMM fitter and the
// MCN simulator all run it with their own visitor.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "events.hpp"

namespace cpt::cellular {

// Top-level UE states shared by 4G and 5G.
enum class TopState : std::uint8_t {
    kDeregistered,
    kConnected,
    kIdle,
};

// Bottom-level (full) states. Not every generation uses every value.
enum class SubState : std::uint8_t {
    kDeregistered,    // top: DEREGISTERED
    kConnActive,      // top: CONNECTED, normal operation
    kConnAfterHo,     // top: CONNECTED, handover just completed (4G only)
    kIdleS1RelS,      // top: IDLE, entered via S1_CONN_REL / AN_REL
    kIdleTauS,        // top: IDLE, entered via TAU-from-idle (4G only)
    kNumSubStates,
};

std::string_view to_string(SubState s);
TopState top_state_of(SubState s);

// A deterministic finite transition structure over (SubState, EventId).
class StateMachine {
public:
    // Builds the machine of Fig. 1a (4G) or Fig. 1b (5G).
    static const StateMachine& for_generation(Generation gen);

    Generation generation() const { return gen_; }
    std::size_t num_events() const { return num_events_; }

    // Destination state for `event` taken from `from`; nullopt when the event
    // violates the machine (the replayer then stays in `from`, per §5.2.1).
    std::optional<SubState> step(SubState from, EventId event) const {
        if (event >= num_events_) return std::nullopt;
        const std::int8_t to = table_[static_cast<std::size_t>(from) * num_events_ + event];
        if (to < 0) return std::nullopt;
        return static_cast<SubState>(to);
    }

    // Bootstrap heuristic (§5.2.1): returns the deterministic destination
    // state for events whose destination does not depend on the source state
    // (ATCH/REGISTER, DTCH/DEREGISTER, SRV_REQ, HO), nullopt otherwise.
    std::optional<SubState> bootstrap_state(EventId event) const {
        if (event >= num_events_) return std::nullopt;
        const std::int8_t to = bootstrap_[event];
        if (to < 0) return std::nullopt;
        return static_cast<SubState>(to);
    }

    // True when `event` can legally occur in at least one state.
    bool event_ever_legal(EventId event) const;

    // All (state, event, next) transitions, for enumeration by the SMM fitter.
    struct Transition {
        SubState from;
        EventId event;
        SubState to;
    };
    const std::vector<Transition>& transitions() const { return transitions_; }

private:
    StateMachine(Generation gen, std::size_t num_events);
    void add(SubState from, EventId event, SubState to);
    void set_bootstrap(EventId event, SubState to);

    Generation gen_;
    std::size_t num_events_;
    // Dense table: index = state * num_events + event; -1 = violation.
    std::vector<std::int8_t> table_;
    std::vector<std::int8_t> bootstrap_;
    std::vector<Transition> transitions_;
};

// The callbacks walk() makes, as no-ops; a visitor derives from this and
// hides the ones it needs. The visitor is a template parameter of walk(), so
// the calls resolve statically and inline.
struct WalkVisitor {
    // An event before the bootstrap (excluded from accounting, §5.2.1).
    void pre_bootstrap(const ControlEvent&) {}
    // The first event with a source-independent destination: it sets the
    // initial state and is itself not checked against one.
    void bootstrap(const ControlEvent&, SubState) {}
    // A legal event after the bootstrap, taking `from` to `to`.
    void step(const ControlEvent&, SubState /*from*/, SubState /*to*/) {}
    // An illegal event: events[index] in state `at`, which the walk keeps.
    void violation(std::size_t /*index*/, const ControlEvent&, SubState /*at*/) {}
};

// The §5.2.1 replay rule: skip events until one fixes a state (bootstrap),
// then step the machine event by event, staying put on an illegal event.
// Returns the final state, or nullopt when no event bootstrapped the stream.
template <class Visitor>
std::optional<SubState> walk(const StateMachine& machine, std::span<const ControlEvent> events,
                             Visitor&& visitor) {
    std::size_t k = 0;
    std::optional<SubState> boot;
    for (; !boot && k < events.size(); ++k) {
        boot = machine.bootstrap_state(events[k].type);
        if (boot) {
            visitor.bootstrap(events[k], *boot);
        } else {
            visitor.pre_bootstrap(events[k]);
        }
    }
    if (!boot) return std::nullopt;
    SubState state = *boot;
    for (; k < events.size(); ++k) {
        const ControlEvent& ev = events[k];
        const auto next = machine.step(state, ev.type);
        if (!next) {
            visitor.violation(k, ev, state);
            continue;
        }
        visitor.step(ev, state, *next);
        state = *next;
    }
    return state;
}

// Result of replaying one stream through a state machine.
struct ReplayResult {
    // Events before the bootstrap heuristic fires (excluded from violation
    // accounting, per §5.2.1).
    std::size_t pre_bootstrap_events = 0;
    std::size_t counted_events = 0;
    std::size_t violations = 0;

    // Per-(sub-state, event) violation counts, keyed as
    // state * num_events + event. Used for the Table 3 top-3 breakdown.
    std::vector<std::size_t> violation_by_state_event;

    // Where the first violation happened, when there is one.
    struct FirstViolation {
        std::size_t event_index = 0;  // position within the stream
        SubState state = SubState::kDeregistered;
    };
    std::optional<FirstViolation> first_violation;

    // Completed sojourn intervals per *top-level* state, in seconds. A sojourn
    // completes when the top-level state changes; the trailing open interval
    // is not recorded (its true duration is unknown).
    std::vector<double> sojourn_connected;
    std::vector<double> sojourn_idle;
    std::vector<double> sojourn_deregistered;

    bool bootstrapped = false;
    SubState final_state = SubState::kDeregistered;

    bool has_violation() const { return violations > 0; }
};

// Replays streams against a machine, producing violation and sojourn
// statistics. Stateless; safe to share.
class StateMachineReplayer {
public:
    explicit StateMachineReplayer(const StateMachine& machine) : machine_(&machine) {}

    ReplayResult replay(std::span<const ControlEvent> events) const;

    // Replays many streams, sharded over the global thread pool. Result i is
    // exactly replay(streams[i]); order is preserved, so aggregation by the
    // caller is thread-count independent.
    std::vector<ReplayResult> replay_all(std::span<const std::span<const ControlEvent>> streams) const;

private:
    const StateMachine* machine_;
};

}  // namespace cpt::cellular
