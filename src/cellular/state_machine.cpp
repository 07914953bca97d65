#include "state_machine.hpp"

#include <stdexcept>

#include "util/thread_pool.hpp"

namespace cpt::cellular {

std::string_view to_string(SubState s) {
    switch (s) {
        case SubState::kDeregistered: return "DEREGISTERED";
        case SubState::kConnActive: return "CONNECTED";
        case SubState::kConnAfterHo: return "CONN_HO_S";
        case SubState::kIdleS1RelS: return "S1_REL_S";
        case SubState::kIdleTauS: return "TAU_IDLE_S";
        case SubState::kNumSubStates: break;
    }
    return "?";
}

TopState top_state_of(SubState s) {
    switch (s) {
        case SubState::kDeregistered: return TopState::kDeregistered;
        case SubState::kConnActive:
        case SubState::kConnAfterHo: return TopState::kConnected;
        case SubState::kIdleS1RelS:
        case SubState::kIdleTauS: return TopState::kIdle;
        case SubState::kNumSubStates: break;
    }
    throw std::invalid_argument("top_state_of: bad sub-state");
}

StateMachine::StateMachine(Generation gen, std::size_t num_events)
    : gen_(gen),
      num_events_(num_events),
      table_(static_cast<std::size_t>(SubState::kNumSubStates) * num_events, -1),
      bootstrap_(num_events, -1) {}

void StateMachine::add(SubState from, EventId event, SubState to) {
    table_[static_cast<std::size_t>(from) * num_events_ + event] = static_cast<std::int8_t>(to);
    transitions_.push_back({from, event, to});
}

void StateMachine::set_bootstrap(EventId event, SubState to) {
    bootstrap_[event] = static_cast<std::int8_t>(to);
}

bool StateMachine::event_ever_legal(EventId event) const {
    for (const auto& t : transitions_) {
        if (t.event == event) return true;
    }
    return false;
}

const StateMachine& StateMachine::for_generation(Generation gen) {
    static const StateMachine lte = [] {
        StateMachine m(Generation::kLte4G, lte::kNumEvents);
        using enum SubState;
        // DEREGISTERED: only an attach is legal.
        m.add(kDeregistered, lte::kAtch, kConnActive);
        // CONNECTED (active).
        m.add(kConnActive, lte::kS1ConnRel, kIdleS1RelS);
        m.add(kConnActive, lte::kHo, kConnAfterHo);
        m.add(kConnActive, lte::kTau, kConnActive);
        m.add(kConnActive, lte::kDtch, kDeregistered);
        // CONNECTED (handover just completed): TAU completes the handover into
        // the new tracking area; a further HO chains; release/detach are legal.
        m.add(kConnAfterHo, lte::kTau, kConnActive);
        m.add(kConnAfterHo, lte::kHo, kConnAfterHo);
        m.add(kConnAfterHo, lte::kS1ConnRel, kIdleS1RelS);
        m.add(kConnAfterHo, lte::kDtch, kDeregistered);
        // IDLE after S1 release (S1_REL_S): re-release and HO are violations.
        m.add(kIdleS1RelS, lte::kSrvReq, kConnActive);
        m.add(kIdleS1RelS, lte::kTau, kIdleTauS);
        m.add(kIdleS1RelS, lte::kDtch, kDeregistered);
        // IDLE after a TAU-from-idle.
        m.add(kIdleTauS, lte::kSrvReq, kConnActive);
        m.add(kIdleTauS, lte::kTau, kIdleTauS);
        m.add(kIdleTauS, lte::kDtch, kDeregistered);
        // Bootstrap (§5.2.1): ATCH, DTCH, SRV_REQ, HO have deterministic
        // destinations regardless of source state.
        m.set_bootstrap(lte::kAtch, kConnActive);
        m.set_bootstrap(lte::kDtch, kDeregistered);
        m.set_bootstrap(lte::kSrvReq, kConnActive);
        m.set_bootstrap(lte::kHo, kConnAfterHo);
        return m;
    }();
    static const StateMachine nr = [] {
        StateMachine m(Generation::kNr5G, nr::kNumEvents);
        using enum SubState;
        m.add(kDeregistered, nr::kRegister, kConnActive);
        m.add(kConnActive, nr::kAnRel, kIdleS1RelS);
        m.add(kConnActive, nr::kHo, kConnActive);  // no TAU in 5G -> no AFTER_HO
        m.add(kConnActive, nr::kDeregister, kDeregistered);
        m.add(kIdleS1RelS, nr::kSrvReq, kConnActive);
        m.add(kIdleS1RelS, nr::kDeregister, kDeregistered);
        m.set_bootstrap(nr::kRegister, kConnActive);
        m.set_bootstrap(nr::kDeregister, kDeregistered);
        m.set_bootstrap(nr::kSrvReq, kConnActive);
        m.set_bootstrap(nr::kHo, kConnActive);
        return m;
    }();
    switch (gen) {
        case Generation::kLte4G: return lte;
        case Generation::kNr5G: return nr;
    }
    throw std::invalid_argument("StateMachine::for_generation: unknown generation");
}

ReplayResult StateMachineReplayer::replay(std::span<const ControlEvent> events) const {
    struct Replay : WalkVisitor {
        ReplayResult& r;
        std::size_t num_events;
        TopState top = TopState::kDeregistered;
        double top_entered_at = 0.0;

        void pre_bootstrap(const ControlEvent&) { ++r.pre_bootstrap_events; }
        void bootstrap(const ControlEvent& ev, SubState s) {
            top = top_state_of(s);
            top_entered_at = ev.timestamp;
        }
        void step(const ControlEvent& ev, SubState, SubState to) {
            ++r.counted_events;
            const TopState next_top = top_state_of(to);
            if (next_top == top) return;
            const double sojourn = ev.timestamp - top_entered_at;
            switch (top) {
                case TopState::kConnected: r.sojourn_connected.push_back(sojourn); break;
                case TopState::kIdle: r.sojourn_idle.push_back(sojourn); break;
                case TopState::kDeregistered: r.sojourn_deregistered.push_back(sojourn); break;
            }
            top = next_top;
            top_entered_at = ev.timestamp;
        }
        void violation(std::size_t index, const ControlEvent& ev, SubState at) {
            ++r.counted_events;
            ++r.violations;
            ++r.violation_by_state_event[static_cast<std::size_t>(at) * num_events + ev.type];
            if (!r.first_violation) r.first_violation = ReplayResult::FirstViolation{index, at};
        }
    };

    ReplayResult r;
    r.violation_by_state_event.assign(
        static_cast<std::size_t>(SubState::kNumSubStates) * machine_->num_events(), 0);
    const auto final_state = walk(*machine_, events, Replay{{}, r, machine_->num_events()});
    r.bootstrapped = final_state.has_value();
    r.final_state = final_state.value_or(SubState::kDeregistered);
    return r;
}

std::vector<ReplayResult> StateMachineReplayer::replay_all(
    std::span<const std::span<const ControlEvent>> streams) const {
    std::vector<ReplayResult> results(streams.size());
    // ~16 table lookups + a few pushes per event; assume ~100 events/stream.
    util::global_pool().parallel_for(streams.size(), util::grain_for(1600),
                                     [&](std::size_t i0, std::size_t i1) {
                                         for (std::size_t i = i0; i < i1; ++i) {
                                             results[i] = replay(streams[i]);
                                         }
                                     });
    return results;
}

}  // namespace cpt::cellular
