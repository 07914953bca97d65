// Autoregressive CPT-GPT inference (paper §4.5): each stream is bootstrapped
// by sampling the first event type from the released initial-event-type
// distribution (interarrival and stop flag fixed to 0), then the model
// recursively predicts the next token until it emits a stop flag of 1. The
// event type and the stop flag are sampled from the predicted categorical
// distributions; the interarrival is sampled from the predicted normal
// distribution (Design 2), or taken verbatim in the ablation mode.
//
// Categorical sampling optionally applies nucleus (top-p) truncation — the
// standard language-model inference practice of sampling from the smallest
// probability mass >= top_p. It suppresses the low-probability tail where
// state-machine-violating events live, at the cost of also suppressing
// legitimately rare events (ATCH/DTCH are ~0.1% of real traffic), so the
// default is raw sampling (top_p = 1.0), matching the paper's inference.
//
// There is one decode loop: SlotBatch. Its step feeds one token per live
// stream through the KV-cached decoder, so one batched forward serves every
// stream — roughly an order of magnitude faster than per-stream loops on
// CPU — and retires the streams that finished. generate_batch() is
// admit-all over a SlotBatch, stepped until empty. generate() runs one
// decode lane per pool thread, each a SlotBatch that refills its free rows
// from a shared serial cursor at every step boundary, so a heavy-tailed
// stream holds one row instead of holding a whole batch until it ends.
//
// Determinism across thread counts: stream s's RNG is the s-th fork of the
// caller's RNG (forked under the cursor's lock, in serial order), and a
// stream's bytes depend only on that RNG — SlotBatch rows are invariant to
// their co-residents and the decoder runs on its lane's own thread (see
// src/nn/infer.hpp) — so generate() output is
// byte-identical for any CPT_THREADS and any `batch` (pinned by
// tests/parallel_determinism_test.cpp).
//
// Every stream holds at least 2 events: the bootstrap event plus at least
// one decoded token (a stop flag ends the stream *after* its event).
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "model.hpp"
#include "trace/stream.hpp"

namespace cpt::trace {
class ColumnarWriter;
}

namespace cpt::core {

struct SamplerConfig {
    std::size_t max_stream_len = 500;  // hard cap, matching training (§5.1)
    // Categorical sampling temperature. Exactly 0 selects greedy decoding:
    // event and stop take the argmax (lowest index on ties), the
    // interarrival takes the predicted mean, and no randomness is consumed
    // after the bootstrap draw.
    double temperature = 1.0;
    double top_p = 1.0;                // nucleus truncation; 1.0 disables
    // Rows per batched forward: the SlotBatch capacity of each generate()
    // lane. Output bytes do not depend on it. On a 4-vCPU AVX2 host with
    // the default CptGptConfig, a held one-thread decode step costs about
    // 9.2 µs per row at 8 rows against 10.3 µs at 32 and 12.5 µs at 1, and
    // offline_trace events/s was best at 4–8 (bench_results/
    // BENCH_sampler_lanes.json: held_decode_row_cost, batch_sweep).
    std::size_t batch = 8;
    trace::DeviceType device = trace::DeviceType::kPhone;  // label for streams
    int hour_of_day = 0;
};

class Sampler {
public:
    Sampler(const CptGpt& model, const Tokenizer& tokenizer,
            std::vector<double> initial_event_dist, SamplerConfig config = {});

    // Wall-clock attribution of a generate_batch call or a SlotBatch, summed
    // across admits and decode steps. The stages partition the loop:
    // `bootstrap` covers admit() (RNG bootstrap draw and first-token
    // encoding), `decode` the KV-cached transformer + head forward, `sample`
    // the per-row categorical/normal draws and next-token re-encoding,
    // `compact` the KV-cache compaction of finished rows. perfbench's
    // sampler probe and cpt-serve's per-slice decode_ms_per_step read these
    // to attribute time to a stage instead of guessing from end-to-end
    // totals.
    struct StageTimes {
        double bootstrap = 0.0;
        double decode = 0.0;
        double sample = 0.0;
        double compact = 0.0;
        std::size_t steps = 0;  // decode steps executed
        StageTimes& operator+=(const StageTimes& o) {
            bootstrap += o.bootstrap;
            decode += o.decode;
            sample += o.sample;
            compact += o.compact;
            steps += o.steps;
            return *this;
        }
    };

    // Generates a single stream (convenience; batched internally for n = 1).
    trace::Stream sample_stream(const std::string& ue_id, util::Rng& rng) const;

    // Generates `n` streams: serials 0..n-1 in ascending order, stream s
    // decoded from the s-th fork of `rng` with ue_id "<ue_prefix>-%06zu".
    trace::Dataset generate(std::size_t n, util::Rng& rng,
                            const std::string& ue_prefix = "cptgpt") const;

    // Streaming variant: the same lanes and cursor (shared generate_impl, so
    // the two entry points cannot drift), but streams go to `writer` in
    // serial order as soon as every lower serial has finished. Memory stays
    // O(threads × batch × max_stream_len) streams, independent of n, while
    // lanes step at comparable rates: the oldest unwritten stream ends
    // within max_stream_len steps of its lane, and each lane finishes at most
    // `batch` streams per step meanwhile.
    // Byte-identical file to write_columnar_file(path, generate(n, ...)) at
    // equal seeds for every CPT_THREADS and batch. Does not finish() the
    // writer. Returns the number of streams appended, which is n.
    std::size_t generate_to(trace::ColumnarWriter& writer, std::size_t n, util::Rng& rng,
                            const std::string& ue_prefix = "cptgpt") const;

    // Decodes `rngs.size()` streams whose RNGs were pre-forked by the caller:
    // admits every RNG into a SlotBatch of that capacity (stream i labelled
    // `first_serial + i`, ue_id "<ue_prefix>-%06zu"), steps until none is
    // live, and returns the streams in completion order. An empty span
    // returns {}. When `times` is non-null, the batch's stage times are
    // added into it.
    std::vector<trace::Stream> generate_batch(std::span<util::Rng> rngs,
                                              const std::string& ue_prefix,
                                              std::size_t first_serial,
                                              StageTimes* times = nullptr) const;

    // Continuous-batching decode session over this sampler's model — the one
    // decode loop, which generate_batch() and src/serve both drive. Slots are
    // decoder rows: admit() fills free slots at step boundaries (including
    // slots that finished streams freed mid-decode), step() advances every
    // live stream by one token and hands back the streams that completed,
    // evict() drops live streams (deadline enforcement) at the next
    // compaction.
    //
    // Determinism: a stream's content is a pure function of the Rng passed
    // to admit() — independent of when the stream was admitted, which and
    // how many other streams share the batch, and CPT_THREADS (the decoder
    // keeps per-row attention windows and positions, see nn/infer.hpp, and
    // its projections run gemm_nt_decode, whose rows never depend on the
    // batch). Pinned on every SIMD tier by tests/nn_infer_test.cpp (alone vs
    // among 15 co-residents). The decoder and the head scratch pack their
    // fp32 weights when the SlotBatch is built, so a SlotBatch decodes the
    // weights the model had at that moment.
    // Admitting serially pre-forked RNGs under any refill schedule therefore
    // reproduces generate_batch() byte-for-byte, which is the single-slice
    // deterministic-mode contract (pinned by tests/serve_test.cpp).
    class SlotBatch {
    public:
        struct Finished {
            trace::Stream stream;
            std::uint64_t ticket = 0;
            bool evicted = false;  // cut short by evict(), not by the model
        };

        SlotBatch(const Sampler& sampler, std::size_t capacity);
        ~SlotBatch();
        SlotBatch(SlotBatch&&) noexcept;
        SlotBatch& operator=(SlotBatch&&) noexcept;

        std::size_t capacity() const;
        std::size_t live() const;
        std::size_t free_slots() const;

        // Longest stream a newly admitted slot could still produce. Rows own
        // independent per-row KV contexts (nn/infer.hpp), so a fresh slot
        // always has the full config cap available regardless of how far the
        // current residents have decoded — this is an invariant, not a
        // function of batch occupancy.
        std::size_t admissible_len() const;

        // Per-stream sampling overrides; negative fields fall back to the
        // sampler's config (the serve layer carries these per request).
        // temperature 0 decodes greedily, as in SamplerConfig; top_p, when
        // set, must be in (0, 1].
        struct AdmitParams {
            std::size_t max_len = std::numeric_limits<std::size_t>::max();
            double temperature = -1.0;
            double top_p = -1.0;
        };

        // Admits one stream into a free slot; its length is capped at
        // min(params.max_len, sampler config max_stream_len), which must fit
        // in admissible_len(). `ticket` tags the stream through Finished.
        void admit(util::Rng rng, std::string ue_id, std::uint64_t ticket,
                   AdmitParams params);
        void admit(util::Rng rng, std::string ue_id, std::uint64_t ticket) {
            admit(std::move(rng), std::move(ue_id), ticket, AdmitParams{});
        }

        // One decode step over all live streams; completed streams are
        // appended to `out`. Returns how many completed. No-op when empty.
        std::size_t step(std::vector<Finished>& out);

        // Drops live streams whose ticket matches `pred`; their partial
        // streams are appended to `out` with evicted = true.
        std::size_t evict(const std::function<bool(std::uint64_t)>& pred,
                          std::vector<Finished>& out);

        // Wall-clock attribution accumulated over every admit() and step()
        // since construction (StageTimes above): `bootstrap` is admit(),
        // `decode` the KV-cached transformer + head forward, `sample` the
        // per-row draws, `compact` the cache compaction, and `steps` the
        // step() calls that ran a decode. The serve layer folds decode /
        // steps into per-slice stats (decode_ms_per_step).
        const StageTimes& stage_times() const;

    private:
        struct Impl;
        std::unique_ptr<Impl> impl_;
    };

    SlotBatch make_slot_batch(std::size_t capacity) const { return SlotBatch(*this, capacity); }

    const SamplerConfig& config() const { return config_; }

private:
    // The decode lanes behind generate() and generate_to(): the n streams
    // are handed to `sink` in serial order, under the cursor's lock.
    void generate_impl(std::size_t n, util::Rng& rng, const std::string& ue_prefix,
                       const std::function<void(trace::Stream&&)>& sink) const;

    const CptGpt* model_;
    const Tokenizer* tokenizer_;
    std::vector<double> initial_event_dist_;
    SamplerConfig config_;
};

}  // namespace cpt::core
