// Layer probes of the traced run: fixed work timed from the benchmark around
// public entry points, the same in every workload.
#include <span>

#include "bench.hpp"
#include "core/sampler.hpp"
#include "trace/columnar.hpp"
#include "util/thread_pool.hpp"

namespace cpt::perfbench {

namespace {

constexpr std::size_t kProbeRounds = 16;
constexpr std::size_t kProbeBatch = 32;        // SamplerConfig::batch
constexpr std::size_t kProbeRound = 4 * kProbeBatch;  // Sampler's parallel round
constexpr std::size_t kHeldSteps = 64;         // decode steps per held-full run
constexpr int kHeldReps = 20;

// Per-step milliseconds of CptGpt::decode_step with every row live for
// kHeldSteps positions (median over kHeldReps fresh decoders).
double held_decode_ms(const core::CptGpt& model, const core::Tokenizer& tok, std::size_t batch) {
    nn::Tensor x = nn::Tensor::zeros({batch, tok.d_token()});
    auto data = x.data();
    for (std::size_t r = 0; r < batch; ++r) {
        tok.encode_token(static_cast<cellular::EventId>(r % tok.num_event_types()), 1.0, false,
                         data.subspan(r * tok.d_token(), tok.d_token()));
    }
    Samples per_step;
    for (int rep = 0; rep < kHeldReps; ++rep) {
        auto decoder = model.make_decoder(batch);
        auto scratch = model.make_decode_scratch(batch);
        const double t0 = now_s();
        for (std::size_t s = 0; s < kHeldSteps; ++s) model.decode_step(decoder, x, scratch);
        per_step.add((now_s() - t0) * 1e3 / kHeldSteps);
    }
    return per_step.median();
}

}  // namespace

void probe_nn(const Stack& stack, Report& rep) {
    const auto& model = stack.model();
    rep.layer["nn.decode_step_ms.b32"] = {held_decode_ms(model, stack.tokenizer(), 32), "ms"};
    rep.layer["nn.decode_step_ms.b1"] = {held_decode_ms(model, stack.tokenizer(), 1), "ms"};
    // From tensor shapes, at batch 32 and context 32 (the middle of a held
    // run): every fp32 weight is read once per step, each row reads its K and
    // V cache; a token costs 2 flops per weight plus QK^T and AV.
    const auto& cfg = model.config();
    const double params = static_cast<double>(model.num_parameters());
    const double ctx = kHeldSteps / 2.0;
    const double kv_bytes = 32.0 * cfg.blocks * 2.0 * ctx * cfg.d_model * 4.0;
    rep.layer["nn.decode_bytes_per_step"] = {params * 4.0 + kv_bytes, "B"};
    rep.layer["nn.decode_flops_per_token"] = {2.0 * params + cfg.blocks * 4.0 * ctx * cfg.d_model,
                                              "flop"};
}

void probe_sampler(const Stack& stack, std::uint64_t seed, const std::string& run_dir, Report& rep) {
    core::SamplerConfig cfg;
    cfg.max_stream_len = kStreamCap;
    cfg.hour_of_day = kWorldHour;
    cfg.batch = kProbeBatch;
    const core::Sampler sampler(stack.model(), stack.tokenizer(), stack.initial_dist(), cfg);
    const std::string path = run_dir + "/probe.cpt";
    util::Rng base(seed ^ 0x5a5a5a5aULL);
    core::Sampler::StageTimes total;
    Samples round_ms;
    double write_s = 0.0;
    std::uint64_t events = 0;
    {
        trace::ColumnarWriter writer(path, stack.world().generation);
        for (std::size_t r = 0; r < kProbeRounds; ++r) {
            // The same round generate_to runs: serially forked RNGs, whole
            // batches on the global pool.
            util::Rng rng = base.fork(r);
            std::vector<util::Rng> rngs;
            for (std::size_t i = 0; i < kProbeRound; ++i) rngs.push_back(rng.fork(i));
            constexpr std::size_t chunks = kProbeRound / kProbeBatch;
            std::vector<std::vector<trace::Stream>> parts(chunks);
            std::vector<core::Sampler::StageTimes> times(chunks);
            const std::string prefix = fmt("p%zu", r);
            const double t0 = now_s();
            util::global_pool().parallel_for(chunks, 1, [&](std::size_t c0, std::size_t c1) {
                for (std::size_t c = c0; c < c1; ++c) {
                    parts[c] = sampler.generate_batch(
                        std::span(rngs).subspan(c * kProbeBatch, kProbeBatch), prefix,
                        c * kProbeBatch, &times[c]);
                }
            });
            const double t1 = now_s();
            round_ms.add((t1 - t0) * 1e3);
            for (const auto& t : times) total += t;
            for (auto& part : parts) {
                for (auto& s : part) {
                    events += s.length();
                    if (s.length() >= 2) writer.append(std::move(s));
                }
            }
            write_s += now_s() - t1;
        }
        const double t0 = now_s();
        writer.finish();
        write_s += now_s() - t0;
    }
    rep.layer["sampler.round_ms"] = {round_ms.median(), "ms"};
    rep.layer["sampler.bootstrap_s"] = {total.bootstrap, "s"};
    rep.layer["sampler.decode_s"] = {total.decode, "s"};
    rep.layer["sampler.sample_s"] = {total.sample, "s"};
    rep.layer["sampler.compact_s"] = {total.compact, "s"};
    rep.layer["sampler.steps"] = {static_cast<double>(total.steps), "count"};
    rep.layer["sampler.rows_per_step"] = {static_cast<double>(events) / static_cast<double>(total.steps),
                                          "rows"};

    SpanLog quiet;
    const auto reference = reference_sketch(stack.held_out(), kStreamCap);
    const Score sc = score_file(path, reference, 0.5, quiet, "");
    const double ev = static_cast<double>(sc.events);
    rep.layer["trace.write_events_per_s"] = {ev / write_s, "1/s"};
    rep.layer["trace.read_events_per_s"] = {ev / sc.read_s, "1/s"};
    rep.layer["lint.events_per_s"] = {ev / sc.lint_s, "1/s"};
    rep.layer["metrics.accumulate_events_per_s"] = {ev / sc.fidelity_s, "1/s"};
    rep.note("probes: %zu sampler rounds of %zu streams, %llu events scored", kProbeRounds,
             kProbeRound, static_cast<unsigned long long>(sc.events));
}

}  // namespace cpt::perfbench
