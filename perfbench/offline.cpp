// offline_trace: the paper's main use. Sampler::generate_to writes rounds of
// streams into one .cpt trace; the file is then linted and scored against
// the held-out world, the way a user consumes a synthesized trace.
#include <algorithm>
#include <cmath>

#include "bench.hpp"
#include "core/sampler.hpp"
#include "trace/columnar.hpp"

namespace cpt::perfbench {

namespace {

// One sampler round (4 decode batches of 32 run in parallel); a round is the
// unit a streaming consumer of generate_to receives at once.
constexpr std::size_t kRoundStreams = 128;
constexpr std::size_t kMinRounds = 20;
constexpr double kGenerateShare = 0.80;  // of --seconds; scoring gets kScoreShare
constexpr double kScoreShare = 0.06;
// Rounds in generation order are cut into this many windows; the reported
// round time is the lower quartile of the windows' medians. A busy host
// only ever adds time, so the faster windows show the program's own speed,
// and a slow spell over up to three quarters of the run does not move it.
constexpr std::size_t kWindows = 8;

core::SamplerConfig sampler_config() {
    core::SamplerConfig sc;
    sc.max_stream_len = kStreamCap;
    sc.hour_of_day = kWorldHour;
    return sc;
}

struct LengthStats {
    double mean = 0.0;
    double p99 = 0.0;
};

LengthStats length_stats(const std::vector<std::size_t>& lengths) {
    Samples s;
    for (const auto n : lengths) s.add(static_cast<double>(n));
    double sum = 0.0;
    for (const double x : s.v) sum += x;
    return {s.v.empty() ? 0.0 : sum / static_cast<double>(s.size()), s.percentile(99.0)};
}

}  // namespace

void run_offline_trace(const RunOptions& opt, Stack& stack, SpanLog& log, Report& rep) {
    const core::Sampler sampler(stack.model(), stack.tokenizer(), stack.initial_dist(),
                                sampler_config());
    const auto reference = reference_sketch(stack.held_out(), kStreamCap);
    const std::string path = opt.run_dir + "/offline.cpt";
    const std::string track = "main";
    util::Rng base(opt.seed);

    Samples round_ms;
    std::uint64_t kept = 0, streams = 0, events = 0;  // streams/events: the writer's totals
    std::size_t rounds = 0, short_rounds = 0;
    double gen_s = 0.0;
    const double root0 = now_s();
    {
        trace::ColumnarWriter writer(path, stack.world().generation);
        while (rounds < kMinRounds || now_s() - root0 < kGenerateShare * opt.seconds) {
            util::Rng rng = base.fork(rounds);
            const std::string prefix = fmt("o%llu-%zu", static_cast<unsigned long long>(opt.seed), rounds);
            const double t0 = now_s();
            std::size_t n = 0;
            {
                ScopedSpan span(log, "sampler.round", prefix, track);
                n = sampler.generate_to(writer, kRoundStreams, rng, prefix);
            }
            const double dt = now_s() - t0;
            round_ms.add(dt * 1e3);
            gen_s += dt;
            kept += n;
            short_rounds += n != kRoundStreams;
            ++rounds;
        }
        ScopedSpan span(log, "trace.finish", "", track);
        const trace::ColumnarStats st = writer.finish();
        streams = st.streams;
        events = st.events;
    }
    const Score sc = score_file(path, reference, kScoreShare * opt.seconds, log, track);
    if (log.enabled()) log.add("root", "", track, root0, now_s());

    rep.attempted += rounds;
    rep.failed += short_rounds;
    const double events_per_round = static_cast<double>(events) / static_cast<double>(rounds);
    const double window_ms = round_ms.per_window(50.0, kWindows).percentile(25.0);
    rep.e2e["events_per_s"] = {events_per_round / (window_ms / 1e3), "1/s"};
    rep.e2e["p50_ms"] = {window_ms, "ms"};
    rep.e2e["fidelity_maxy"] = {sc.maxy_mean, "1"};
    rep.e2e["violation_frac"] = {sc.violation_frac, "1"};
    rep.note("offline_trace: %zu rounds x %zu streams, %llu events, %.0f events/s over all rounds; "
             "round latency p50 %.2f ms, p%.1f %.2f ms over %zu samples; faster-quartile window "
             "median %.2f ms",
             rounds, kRoundStreams, static_cast<unsigned long long>(events),
             static_cast<double>(events) / gen_s, round_ms.median(), round_ms.tail_pct(),
             round_ms.tail(), round_ms.size(), window_ms);
    rep.note("scoring: lint + fidelity over %llu events at %.0f events/s (median of passes)",
             static_cast<unsigned long long>(sc.events),
             static_cast<double>(sc.events) / (sc.lint_s + sc.fidelity_s));

    // Verify the traffic instead of assuming it.
    rep.check(short_rounds == 0, "every round wrote %zu streams (%zu short rounds)", kRoundStreams,
              short_rounds);
    rep.check(kept == streams && sc.streams == streams && sc.events == events,
              ".cpt read-back %llu streams / %llu events == written %llu / %llu",
              static_cast<unsigned long long>(sc.streams), static_cast<unsigned long long>(sc.events),
              static_cast<unsigned long long>(streams), static_cast<unsigned long long>(events));
    const bool in_range = std::all_of(sc.lengths.begin(), sc.lengths.end(),
                                      [](std::size_t n) { return n >= 2 && n <= kStreamCap; });
    rep.check(in_range, "every stream length in [2, %zu]", kStreamCap);
    std::vector<std::size_t> world_lengths;
    for (const auto& s : stack.world().streams) world_lengths.push_back(s.length());
    const auto gen = length_stats(sc.lengths);
    const auto world = length_stats(world_lengths);
    rep.note("stream length: generated mean %.2f p99 %.0f | training world mean %.2f p99 %.0f",
             gen.mean, gen.p99, world.mean, world.p99);
    rep.check(std::fabs(gen.mean - world.mean) <= 0.25 * world.mean,
              "generated mean length %.2f within 25%% of the world's %.2f", gen.mean, world.mean);
    rep.check(std::isfinite(sc.maxy_mean) && sc.maxy_mean > 0.0, "fidelity max-y %.4f is finite",
              sc.maxy_mean);
}

}  // namespace cpt::perfbench
