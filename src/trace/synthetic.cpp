#include "synthetic.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <numbers>

#include "columnar.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace cpt::trace {

using cellular::EventId;
using cellular::Generation;
using cellular::StateMachine;
using cellular::SubState;
using cellular::TopState;
namespace lte = cellular::lte;

double DelayModel::sample(util::Rng& rng, double scale) const {
    CPT_CHECK(!components.empty(), "DelayModel::sample: no components");
    // Hot path (once per generated event): mixtures are tiny, so stage the
    // weights on the stack instead of a per-call heap vector. The categorical
    // draw happens either way, keeping the RNG stream unchanged.
    std::size_t pick;
    if (components.size() <= 8) {
        double ws[8];
        for (std::size_t i = 0; i < components.size(); ++i) ws[i] = components[i].weight;
        pick = rng.categorical(std::span<const double>(ws, components.size()));
    } else {
        std::vector<double> ws;
        ws.reserve(components.size());
        for (const auto& c : components) ws.push_back(c.weight);
        pick = rng.categorical(std::span<const double>(ws));
    }
    const auto& c = components[pick];
    return std::max(kMinDelay, rng.lognormal(c.mu, c.sigma) * scale);
}

double diurnal_factor(const DeviceProfile& profile, double hour) {
    const double phase = 2.0 * std::numbers::pi * (hour - profile.diurnal_peak_hour) / 24.0;
    return 1.0 + profile.diurnal_amplitude * std::cos(phase);
}

namespace {

constexpr std::size_t kNumSubStates = static_cast<std::size_t>(SubState::kNumSubStates);

double ln(double x) { return std::log(x); }

// Helper to assemble a profile over a generation's vocabulary.
struct ProfileBuilder {
    DeviceProfile p;

    explicit ProfileBuilder(std::size_t num_events = lte::kNumEvents) {
        for (auto& w : p.event_weights) w.assign(num_events, 0.0);
        for (auto& d : p.delays) d.assign(num_events, DelayModel{});
    }

    void weight(SubState s, EventId e, double w) {
        p.event_weights[static_cast<std::size_t>(s)][e] = w;
    }
    void delay(SubState s, EventId e, DelayModel m) {
        p.delays[static_cast<std::size_t>(s)][e] = std::move(m);
    }
};

DelayModel single(double median_seconds, double sigma) {
    return DelayModel{{{1.0, ln(median_seconds), sigma}}};
}

DelayModel mixture(double w1, double med1, double s1, double w2, double med2, double s2) {
    return DelayModel{{{w1, ln(med1), s1}, {w2, ln(med2), s2}}};
}

DeviceProfile make_phone_profile() {
    ProfileBuilder b;
    using enum SubState;
    // CONNECTED (active): release dominates; occasional handover / TAU.
    b.weight(kConnActive, lte::kS1ConnRel, 0.905);
    b.weight(kConnActive, lte::kHo, 0.060);
    b.weight(kConnActive, lte::kTau, 0.016);
    b.weight(kConnActive, lte::kDtch, 0.0022);
    // CONNECTED (after handover): a TAU usually completes the handover.
    b.weight(kConnAfterHo, lte::kTau, 0.36);
    b.weight(kConnAfterHo, lte::kHo, 0.07);
    b.weight(kConnAfterHo, lte::kS1ConnRel, 0.55);
    b.weight(kConnAfterHo, lte::kDtch, 0.01);
    // IDLE: service requests dominate.
    b.weight(kIdleS1RelS, lte::kSrvReq, 0.985);
    b.weight(kIdleS1RelS, lte::kTau, 0.013);
    b.weight(kIdleS1RelS, lte::kDtch, 0.002);
    b.weight(kIdleTauS, lte::kSrvReq, 0.985);
    b.weight(kIdleTauS, lte::kTau, 0.013);
    b.weight(kIdleTauS, lte::kDtch, 0.002);
    b.weight(kDeregistered, lte::kAtch, 1.0);

    // Delays. Paper Fig. 2: bulk of phone CONNECTED sojourns in 5-50 s.
    const DelayModel conn_rel = single(13.0, 0.70);
    const DelayModel conn_evt = single(6.0, 0.80);
    const DelayModel idle_srv = mixture(0.65, 40.0, 0.90, 0.35, 280.0, 1.00);
    const DelayModel idle_tau = single(420.0, 0.80);
    const DelayModel dereg_atch = single(500.0, 1.00);
    b.delay(kConnActive, lte::kS1ConnRel, conn_rel);
    b.delay(kConnActive, lte::kHo, conn_evt);
    b.delay(kConnActive, lte::kTau, conn_evt);
    b.delay(kConnActive, lte::kDtch, conn_rel);
    b.delay(kConnAfterHo, lte::kTau, single(2.5, 0.60));
    b.delay(kConnAfterHo, lte::kHo, conn_evt);
    b.delay(kConnAfterHo, lte::kS1ConnRel, conn_rel);
    b.delay(kConnAfterHo, lte::kDtch, conn_rel);
    b.delay(kIdleS1RelS, lte::kSrvReq, idle_srv);
    b.delay(kIdleS1RelS, lte::kTau, idle_tau);
    b.delay(kIdleS1RelS, lte::kDtch, idle_srv);
    b.delay(kIdleTauS, lte::kSrvReq, idle_srv);
    b.delay(kIdleTauS, lte::kTau, idle_tau);
    b.delay(kIdleTauS, lte::kDtch, idle_srv);
    b.delay(kDeregistered, lte::kAtch, dereg_atch);

    b.p.activity_sigma = 0.55;
    b.p.mobility_sigma = 0.60;
    b.p.initial_state_probs = {0.02, 0.08, 0.90};
    b.p.diurnal_amplitude = 0.35;
    b.p.diurnal_peak_hour = 14.0;
    return b.p;
}

DeviceProfile make_car_profile() {
    ProfileBuilder b;
    using enum SubState;
    // Cars are mobile: far more HO/TAU (paper Table 7: HO 8.6%, TAU 5.6%).
    b.weight(kConnActive, lte::kS1ConnRel, 0.760);
    b.weight(kConnActive, lte::kHo, 0.160);
    b.weight(kConnActive, lte::kTau, 0.048);
    b.weight(kConnActive, lte::kDtch, 0.016);
    b.weight(kConnAfterHo, lte::kTau, 0.32);
    b.weight(kConnAfterHo, lte::kHo, 0.12);
    b.weight(kConnAfterHo, lte::kS1ConnRel, 0.54);
    b.weight(kConnAfterHo, lte::kDtch, 0.02);
    b.weight(kIdleS1RelS, lte::kSrvReq, 0.925);
    b.weight(kIdleS1RelS, lte::kTau, 0.055);
    b.weight(kIdleS1RelS, lte::kDtch, 0.020);
    b.weight(kIdleTauS, lte::kSrvReq, 0.925);
    b.weight(kIdleTauS, lte::kTau, 0.055);
    b.weight(kIdleTauS, lte::kDtch, 0.020);
    b.weight(kDeregistered, lte::kAtch, 1.0);

    // Telemetry-style short connections; idle clustered around 200-300 s
    // (paper: SMM-1 over-generates 200-300 s idles for cars — i.e. the real
    // car idle mass sits near there but with more spread).
    const DelayModel conn_rel = single(8.0, 0.60);
    const DelayModel conn_evt = single(4.0, 0.70);
    const DelayModel idle_srv = mixture(0.55, 120.0, 0.70, 0.45, 260.0, 0.55);
    const DelayModel idle_tau = single(300.0, 0.60);
    b.delay(kConnActive, lte::kS1ConnRel, conn_rel);
    b.delay(kConnActive, lte::kHo, conn_evt);
    b.delay(kConnActive, lte::kTau, conn_evt);
    b.delay(kConnActive, lte::kDtch, conn_rel);
    b.delay(kConnAfterHo, lte::kTau, single(2.0, 0.50));
    b.delay(kConnAfterHo, lte::kHo, conn_evt);
    b.delay(kConnAfterHo, lte::kS1ConnRel, conn_rel);
    b.delay(kConnAfterHo, lte::kDtch, conn_rel);
    b.delay(kIdleS1RelS, lte::kSrvReq, idle_srv);
    b.delay(kIdleS1RelS, lte::kTau, idle_tau);
    b.delay(kIdleS1RelS, lte::kDtch, idle_srv);
    b.delay(kIdleTauS, lte::kSrvReq, idle_srv);
    b.delay(kIdleTauS, lte::kTau, idle_tau);
    b.delay(kIdleTauS, lte::kDtch, idle_srv);
    b.delay(kDeregistered, lte::kAtch, single(400.0, 0.90));

    b.p.activity_sigma = 0.45;
    b.p.mobility_sigma = 0.80;
    b.p.initial_state_probs = {0.04, 0.10, 0.86};
    // Commute peaks: stronger swing, morning-shifted.
    b.p.diurnal_amplitude = 0.45;
    b.p.diurnal_peak_hour = 9.0;
    return b.p;
}

DeviceProfile make_tablet_profile() {
    ProfileBuilder b;
    using enum SubState;
    b.weight(kConnActive, lte::kS1ConnRel, 0.915);
    b.weight(kConnActive, lte::kHo, 0.047);
    b.weight(kConnActive, lte::kTau, 0.022);
    b.weight(kConnActive, lte::kDtch, 0.018);
    b.weight(kConnAfterHo, lte::kTau, 0.38);
    b.weight(kConnAfterHo, lte::kHo, 0.05);
    b.weight(kConnAfterHo, lte::kS1ConnRel, 0.55);
    b.weight(kConnAfterHo, lte::kDtch, 0.02);
    b.weight(kIdleS1RelS, lte::kSrvReq, 0.940);
    b.weight(kIdleS1RelS, lte::kTau, 0.040);
    b.weight(kIdleS1RelS, lte::kDtch, 0.020);
    b.weight(kIdleTauS, lte::kSrvReq, 0.940);
    b.weight(kIdleTauS, lte::kTau, 0.040);
    b.weight(kIdleTauS, lte::kDtch, 0.020);
    b.weight(kDeregistered, lte::kAtch, 1.0);

    // Tablets: longer sessions, long sleepy idles.
    const DelayModel conn_rel = single(18.0, 0.90);
    const DelayModel conn_evt = single(7.0, 0.80);
    const DelayModel idle_srv = mixture(0.60, 60.0, 1.00, 0.40, 480.0, 1.10);
    const DelayModel idle_tau = single(500.0, 0.90);
    b.delay(kConnActive, lte::kS1ConnRel, conn_rel);
    b.delay(kConnActive, lte::kHo, conn_evt);
    b.delay(kConnActive, lte::kTau, conn_evt);
    b.delay(kConnActive, lte::kDtch, conn_rel);
    b.delay(kConnAfterHo, lte::kTau, single(3.0, 0.60));
    b.delay(kConnAfterHo, lte::kHo, conn_evt);
    b.delay(kConnAfterHo, lte::kS1ConnRel, conn_rel);
    b.delay(kConnAfterHo, lte::kDtch, conn_rel);
    b.delay(kIdleS1RelS, lte::kSrvReq, idle_srv);
    b.delay(kIdleS1RelS, lte::kTau, idle_tau);
    b.delay(kIdleS1RelS, lte::kDtch, idle_srv);
    b.delay(kIdleTauS, lte::kSrvReq, idle_srv);
    b.delay(kIdleTauS, lte::kTau, idle_tau);
    b.delay(kIdleTauS, lte::kDtch, idle_srv);
    b.delay(kDeregistered, lte::kAtch, single(600.0, 1.00));

    b.p.activity_sigma = 0.70;
    b.p.mobility_sigma = 0.50;
    b.p.initial_state_probs = {0.03, 0.07, 0.90};
    b.p.diurnal_amplitude = 0.40;
    b.p.diurnal_peak_hour = 20.0;  // evening couch usage
    return b.p;
}

// Derives a 5G profile that mirrors a 4G one: the same temporal behaviour
// over the Fig. 1b machine (no TAU, ATCH/DTCH/S1_CONN_REL renamed to
// REGISTER/DEREGISTER/AN_REL, handovers complete without a tracking-area
// update).
DeviceProfile make_5g_profile(const DeviceProfile& lte_profile) {
    namespace nr = cellular::nr;
    ProfileBuilder b(nr::kNumEvents);
    using enum SubState;
    const auto& lw = lte_profile.event_weights;
    const auto& ld = lte_profile.delays;
    const auto w4 = [&](SubState s, cellular::EventId e) {
        return lw[static_cast<std::size_t>(s)][e];
    };
    const auto d4 = [&](SubState s, cellular::EventId e) {
        return ld[static_cast<std::size_t>(s)][e];
    };

    // DEREGISTERED -> REGISTER mirrors ATCH.
    b.weight(kDeregistered, nr::kRegister, 1.0);
    b.delay(kDeregistered, nr::kRegister, d4(kDeregistered, lte::kAtch));
    // CONNECTED: AN_REL absorbs the 4G S1_CONN_REL + TAU shares (no TAU in
    // 5G); HO keeps its share and stays CONNECTED.
    b.weight(kConnActive, nr::kAnRel,
             w4(kConnActive, lte::kS1ConnRel) + w4(kConnActive, lte::kTau));
    b.weight(kConnActive, nr::kHo, w4(kConnActive, lte::kHo));
    b.weight(kConnActive, nr::kDeregister, w4(kConnActive, lte::kDtch));
    b.delay(kConnActive, nr::kAnRel, d4(kConnActive, lte::kS1ConnRel));
    b.delay(kConnActive, nr::kHo, d4(kConnActive, lte::kHo));
    b.delay(kConnActive, nr::kDeregister, d4(kConnActive, lte::kDtch));
    // IDLE: SRV_REQ absorbs the idle TAU share.
    b.weight(kIdleS1RelS, nr::kSrvReq,
             w4(kIdleS1RelS, lte::kSrvReq) + w4(kIdleS1RelS, lte::kTau));
    b.weight(kIdleS1RelS, nr::kDeregister, w4(kIdleS1RelS, lte::kDtch));
    b.delay(kIdleS1RelS, nr::kSrvReq, d4(kIdleS1RelS, lte::kSrvReq));
    b.delay(kIdleS1RelS, nr::kDeregister, d4(kIdleS1RelS, lte::kDtch));

    b.p.activity_sigma = lte_profile.activity_sigma;
    b.p.mobility_sigma = lte_profile.mobility_sigma;
    b.p.initial_state_probs = lte_profile.initial_state_probs;
    b.p.diurnal_amplitude = lte_profile.diurnal_amplitude;
    b.p.diurnal_peak_hour = lte_profile.diurnal_peak_hour;
    return b.p;
}

void validate_profile(const DeviceProfile& p, const StateMachine& m) {
    for (std::size_t s = 0; s < kNumSubStates; ++s) {
        for (std::size_t e = 0; e < p.event_weights[s].size(); ++e) {
            CPT_CHECK(p.event_weights[s][e] <= 0.0 ||
                          m.step(static_cast<SubState>(s), static_cast<EventId>(e)).has_value(),
                      "DeviceProfile gives weight to an illegal transition: state ",
                      to_string(static_cast<SubState>(s)), " event ", e);
        }
    }
}

}  // namespace

const DeviceProfile& device_profile(DeviceType d, Generation gen) {
    static const auto validated = [](DeviceProfile p, Generation g) {
        validate_profile(p, StateMachine::for_generation(g));
        return p;
    };
    static const DeviceProfile phone = validated(make_phone_profile(), Generation::kLte4G);
    static const DeviceProfile car = validated(make_car_profile(), Generation::kLte4G);
    static const DeviceProfile tablet = validated(make_tablet_profile(), Generation::kLte4G);
    static const DeviceProfile phone5g = validated(make_5g_profile(phone), Generation::kNr5G);
    static const DeviceProfile car5g = validated(make_5g_profile(car), Generation::kNr5G);
    static const DeviceProfile tablet5g = validated(make_5g_profile(tablet), Generation::kNr5G);
    const bool lte = gen == Generation::kLte4G;
    switch (d) {
        case DeviceType::kPhone: return lte ? phone : phone5g;
        case DeviceType::kConnectedCar: return lte ? car : car5g;
        case DeviceType::kTablet: return lte ? tablet : tablet5g;
    }
    CPT_CHECK(false, "device_profile: unknown device type ", static_cast<int>(d));
}

SyntheticWorldGenerator::SyntheticWorldGenerator(SyntheticWorldConfig config)
    : config_(config) {}

Stream SyntheticWorldGenerator::generate_stream(DeviceType d, const std::string& ue_id,
                                                util::Rng& rng) const {
    const DeviceProfile& profile = device_profile(d, config_.generation);
    const StateMachine& machine = StateMachine::for_generation(config_.generation);

    Stream stream;
    stream.ue_id = ue_id;
    stream.device = d;
    stream.hour_of_day = config_.hour_of_day;

    // Per-UE heterogeneity.
    const double activity = std::clamp(rng.lognormal(0.0, profile.activity_sigma), 0.15, 6.0);
    const double mobility = std::clamp(rng.lognormal(0.0, profile.mobility_sigma), 0.2, 5.0);
    const double idle_scale =
        activity / diurnal_factor(profile, static_cast<double>(config_.hour_of_day));

    // Initial sub-state.
    SubState state;
    const std::size_t init =
        rng.categorical(std::span<const double>(profile.initial_state_probs));
    switch (init) {
        case 0: state = SubState::kDeregistered; break;
        case 1: state = SubState::kConnActive; break;
        default: state = SubState::kIdleS1RelS; break;
    }

    double t = 0.0;
    bool first = true;
    std::vector<double> weights;  // reused across events; per-iteration copy, one allocation
    while (stream.events.size() < config_.max_events_per_stream) {
        const auto& base_weights = profile.event_weights[static_cast<std::size_t>(state)];
        weights.assign(base_weights.begin(), base_weights.end());
        // Mobility scales handover propensity (HO has id 4 in both 4G and 5G
        // vocabularies by construction).
        const cellular::EventId ho_id =
            config_.generation == Generation::kLte4G ? lte::kHo : cellular::nr::kHo;
        if (ho_id < weights.size()) weights[ho_id] *= mobility;
        double total = 0.0;
        for (double w : weights) total += w;
        if (total <= 0.0) break;  // absorbing state (not reachable with built-in profiles)

        const auto event = static_cast<EventId>(rng.categorical(std::span<const double>(weights)));
        const bool idle_like =
            cellular::top_state_of(state) != TopState::kConnected;
        const double scale = idle_like ? idle_scale : std::sqrt(activity);
        const double delay =
            profile.delays[static_cast<std::size_t>(state)][event].sample(rng, scale);

        if (!first && t + delay > config_.window_seconds) break;
        t = first ? 0.0 : t + delay;  // first event anchors the stream at t=0
        first = false;

        stream.events.push_back({t, event});
        const auto next = machine.step(state, event);
        CPT_CHECK(next.has_value(),
                  "SyntheticWorldGenerator produced an illegal transition from state ",
                  to_string(state), " on event ", event);
        state = *next;
    }
    return stream;
}

namespace {

// The world's streams in UE order, `chunk_ues` UEs at a time: fork the
// chunk's RNGs serially (salt = absolute UE index, so the parent RNG sees one
// fixed mutation sequence whatever the chunk size), generate on the pool,
// then hand the kept streams (two events or more) to `sink` in UE order.
// Peak memory is O(chunk_ues); the output is bit-identical for every thread
// count and chunk size. Returns the number of kept streams.
std::size_t generate_chunks(const SyntheticWorldGenerator& gen, std::size_t chunk_ues,
                            const std::function<void(Stream&&)>& sink) {
    const SyntheticWorldConfig& config = gen.config();
    util::Rng rng(config.seed ^
                  (0x5bd1e995ULL * static_cast<std::uint64_t>(config.hour_of_day + 1)));
    // Populations are laid out device-major: UE i has the device d with
    // cum[d] <= i < cum[d + 1].
    std::array<std::size_t, kNumDeviceTypes + 1> cum{};
    for (std::size_t d = 0; d < kNumDeviceTypes; ++d) cum[d + 1] = cum[d] + config.population[d];
    const std::size_t total = cum[kNumDeviceTypes];
    const auto device_of = [&](std::size_t i) {
        std::size_t d = 0;
        while (i >= cum[d + 1]) ++d;
        return static_cast<DeviceType>(d);
    };

    std::size_t kept = 0;
    std::vector<util::Rng> rngs;
    std::vector<Stream> streams;
    rngs.reserve(std::min(chunk_ues, total));
    for (std::size_t base = 0; base < total;) {
        const std::size_t n = std::min(chunk_ues, total - base);
        rngs.clear();
        for (std::size_t i = 0; i < n; ++i) rngs.push_back(rng.fork(base + i));
        streams.resize(n);
        util::global_pool().parallel_for(n, 1, [&](std::size_t i0, std::size_t i1) {
            for (std::size_t i = i0; i < i1; ++i) {
                streams[i] = gen.generate_stream(device_of(base + i), ue_id("ue", base + i),
                                                 rngs[i]);
            }
        });
        for (auto& s : streams) {
            if (s.events.size() >= 2) {
                sink(std::move(s));
                ++kept;
            }
        }
        base += n;
    }
    return kept;
}

}  // namespace

Dataset SyntheticWorldGenerator::generate() const {
    Dataset ds;
    ds.generation = config_.generation;
    // The whole population in one chunk.
    generate_chunks(*this, std::numeric_limits<std::size_t>::max(),
                    [&](Stream&& s) { ds.streams.push_back(std::move(s)); });
    return ds;
}

std::size_t SyntheticWorldGenerator::generate_to(ColumnarWriter& writer,
                                                 std::size_t chunk_ues) const {
    CPT_CHECK_GE(chunk_ues, std::size_t{1}, " generate_to: chunk_ues must be >= 1");
    CPT_CHECK(writer.generation() == config_.generation,
              "generate_to: writer generation does not match the configured generation");
    return generate_chunks(*this, chunk_ues, [&](Stream&& s) { writer.append(std::move(s)); });
}

std::vector<Dataset> SyntheticWorldGenerator::generate_hours(int hours) const {
    std::vector<Dataset> out(static_cast<std::size_t>(std::max(hours, 0)));
    // Hours are seeded independently, so they can generate concurrently; each
    // slot is written by exactly one lane.
    util::global_pool().parallel_for(out.size(), 1, [&](std::size_t h0, std::size_t h1) {
        for (std::size_t h = h0; h < h1; ++h) {
            SyntheticWorldConfig cfg = config_;
            cfg.hour_of_day = (config_.hour_of_day + static_cast<int>(h)) % 24;
            cfg.seed = config_.seed + 1000003ULL * static_cast<std::uint64_t>(h + 1);
            out[h] = SyntheticWorldGenerator(cfg).generate();
        }
    });
    return out;
}

}  // namespace cpt::trace
