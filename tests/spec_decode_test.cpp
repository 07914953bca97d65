// Tests for speculative multi-token decode (DESIGN.md §16). Three layers:
//
//   * decoder KV-rollback property — feeding a speculative window through
//     TransformerDecoder::step_window and rolling every row back must leave
//     the decoder byte-identical to one that never saw the window, across
//     subsequent steps, compact(), and admit() (free-list reuse included);
//   * sampler identity pins — spec_force_reject + spec_verify_all (every
//     draft rejected, every rollback taken) is byte-identical to the plain
//     spec_k = 1 path; greedy decoding (temperature == 0) is byte-identical
//     at every spec_k by construction; spec_k = 1 with a drafter attached
//     degenerates to the plain path exactly;
//   * scheduler pins — SlotBatch at spec_k > 1 reproduces generate_batch
//     byte-for-byte, and a stream's content is a pure function of its
//     admit() Rng under admit/evict churn at every spec_k tried (batch
//     composition and admission timing cannot perturb content).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/model.hpp"
#include "core/sampler.hpp"
#include "core/spec_drafter.hpp"
#include "trace/synthetic.hpp"
#include "util/rng.hpp"

namespace cpt {
namespace {

core::CptGptConfig tiny_config() {
    core::CptGptConfig cfg;
    cfg.d_model = 16;
    cfg.heads = 2;
    cfg.mlp_hidden = 32;
    cfg.blocks = 1;
    cfg.max_seq_len = 32;
    cfg.head_hidden = 16;
    return cfg;
}

std::vector<trace::Stream> sorted_by_ue(std::vector<trace::Stream> streams) {
    std::sort(streams.begin(), streams.end(),
              [](const trace::Stream& a, const trace::Stream& b) { return a.ue_id < b.ue_id; });
    return streams;
}

void expect_streams_identical(const trace::Stream& a, const trace::Stream& b) {
    EXPECT_EQ(a.ue_id, b.ue_id);
    ASSERT_EQ(a.events.size(), b.events.size()) << a.ue_id;
    for (std::size_t i = 0; i < a.events.size(); ++i) {
        // Byte-identical, not approximately equal: the determinism contract.
        EXPECT_EQ(a.events[i].timestamp, b.events[i].timestamp) << a.ue_id << " event " << i;
        EXPECT_EQ(a.events[i].type, b.events[i].type) << a.ue_id << " event " << i;
    }
}

void expect_outputs_identical(const core::CptGpt::DecodeOutput& a,
                              const core::CptGpt::DecodeOutput& b, const char* what) {
    const auto ea = a.event_logits.data();
    const auto eb = b.event_logits.data();
    ASSERT_EQ(ea.size(), eb.size()) << what;
    for (std::size_t i = 0; i < ea.size(); ++i) EXPECT_EQ(ea[i], eb[i]) << what << " logit " << i;
    const auto ma = a.ia_mu.data();
    const auto mb = b.ia_mu.data();
    ASSERT_EQ(ma.size(), mb.size()) << what;
    for (std::size_t i = 0; i < ma.size(); ++i) EXPECT_EQ(ma[i], mb[i]) << what << " mu " << i;
    const auto va = a.ia_logvar.data();
    const auto vb = b.ia_logvar.data();
    ASSERT_EQ(va.size(), vb.size()) << what;
    for (std::size_t i = 0; i < va.size(); ++i) EXPECT_EQ(va[i], vb[i]) << what << " logvar " << i;
    const auto sa = a.stop_logits.data();
    const auto sb = b.stop_logits.data();
    ASSERT_EQ(sa.size(), sb.size()) << what;
    for (std::size_t i = 0; i < sa.size(); ++i) EXPECT_EQ(sa[i], sb[i]) << what << " stop " << i;
}

// Shared tiny model + drafter: built once per test process.
struct SpecFixture : ::testing::Test {
    static void SetUpTestSuite() {
        trace::SyntheticWorldConfig w;
        w.population = {40, 0, 0};
        data = std::make_unique<trace::Dataset>(trace::SyntheticWorldGenerator(w).generate());
        tokenizer = std::make_unique<core::Tokenizer>(core::Tokenizer::fit(*data));
        util::Rng rng(21);
        model = std::make_unique<core::CptGpt>(*tokenizer, tiny_config(), rng);
        drafter =
            std::make_unique<core::SpecDrafter>(core::SpecDrafter::fit(*data, *tokenizer));
    }
    static void TearDownTestSuite() {
        drafter.reset();
        model.reset();
        tokenizer.reset();
        data.reset();
    }

    static core::SamplerConfig base_config(std::size_t batch) {
        core::SamplerConfig sc;
        sc.batch = batch;
        sc.device = trace::DeviceType::kPhone;
        sc.hour_of_day = 9;
        return sc;
    }
    static core::SamplerConfig spec_config(std::size_t k, std::size_t batch) {
        auto sc = base_config(batch);
        sc.spec_k = k;
        sc.drafter = drafter.get();
        return sc;
    }
    static std::vector<util::Rng> forked(std::uint64_t seed, std::size_t n) {
        util::Rng root(seed);
        std::vector<util::Rng> rngs;
        rngs.reserve(n);
        for (std::size_t i = 0; i < n; ++i) rngs.push_back(root.fork(i));
        return rngs;
    }

    static std::unique_ptr<trace::Dataset> data;
    static std::unique_ptr<core::Tokenizer> tokenizer;
    static std::unique_ptr<core::CptGpt> model;
    static std::unique_ptr<core::SpecDrafter> drafter;
};
std::unique_ptr<trace::Dataset> SpecFixture::data;
std::unique_ptr<core::Tokenizer> SpecFixture::tokenizer;
std::unique_ptr<core::CptGpt> SpecFixture::model;
std::unique_ptr<core::SpecDrafter> SpecFixture::drafter;

// ---- decoder KV-rollback property ------------------------------------------

// Writes a deterministic synthetic token into `dst` (no model semantics
// needed: the decoder is a pure function of its token inputs).
void fill_token(const core::Tokenizer& tok, std::size_t salt, std::span<float> dst) {
    const auto ev = static_cast<cellular::EventId>(salt % tok.num_event_types());
    tok.encode_token(ev, 0.05 * static_cast<double>(salt % 7), false, dst);
}

TEST_F(SpecFixture, WindowPlusFullRollbackLeavesDecoderByteIdentical) {
    constexpr std::size_t kBatch = 3;
    constexpr std::size_t kMaxWindow = 4;
    // `probe` never sees a window; `spec` interleaves window-feed + rollback
    // between every lockstep decode step. Every decode_step output must stay
    // byte-identical — that is the KV-rollback contract rounds rely on.
    auto probe = model->make_decoder(kBatch);
    auto spec = model->make_decoder(kBatch, nn::Precision::kFp32, kMaxWindow);
    auto probe_scratch = model->make_decode_scratch(kBatch);
    auto spec_scratch = model->make_decode_scratch(kBatch * kMaxWindow);

    const std::size_t d_token = tokenizer->d_token();
    nn::Tensor step_tok({kBatch, d_token});
    nn::Tensor window_full({kBatch * kMaxWindow, d_token});

    auto feed_step = [&](std::size_t salt) {
        auto dst = step_tok.data();
        for (std::size_t r = 0; r < step_tok.dim(0); ++r) {
            fill_token(*tokenizer, salt + 13 * r, dst.subspan(r * d_token, d_token));
        }
        const auto& a = model->decode_step(probe, step_tok, probe_scratch);
        const auto& b = model->decode_step(spec, step_tok, spec_scratch);
        expect_outputs_identical(a, b, ("step salt=" + std::to_string(salt)).c_str());
    };
    // Feeds a speculative window into `spec` only, then rolls every row all
    // the way back — observationally a no-op if rollback is exact.
    auto feed_window_and_rollback = [&](std::vector<std::size_t> counts, std::size_t salt) {
        counts.resize(spec.batch(), 0);
        std::vector<std::size_t> before(spec.batch());
        for (std::size_t r = 0; r < spec.batch(); ++r) before[r] = spec.row_length(r);
        std::size_t wrows = 0;
        for (auto c : counts) wrows += c;
        ASSERT_GT(wrows, 0u);
        nn::Tensor window = window_full.first_rows(wrows);
        auto dst = window.data();
        for (std::size_t i = 0; i < wrows; ++i) {
            fill_token(*tokenizer, salt + 31 * i, dst.subspan(i * d_token, d_token));
        }
        model->decode_window(spec, window, counts, spec_scratch);
        for (std::size_t r = 0; r < spec.batch(); ++r) {
            ASSERT_EQ(spec.row_length(r), before[r] + counts[r]);
            spec.rollback_row(r, before[r]);
            ASSERT_EQ(spec.row_length(r), before[r]);
        }
    };

    for (std::size_t s = 0; s < 4; ++s) feed_step(s);
    feed_window_and_rollback({2, 0, 3}, 100);
    feed_step(4);
    feed_window_and_rollback({4, 1, 2}, 200);
    feed_step(5);

    // compact() both to rows {0, 2}: rollback must also hold after the
    // logical->physical remap.
    probe.compact({0, 2});
    spec.compact({0, 2});
    step_tok = step_tok.first_rows(2);
    feed_step(6);
    feed_window_and_rollback({3, 2}, 300);
    feed_step(7);

    // admit() a fresh row (recycled physical row from the free list): its
    // empty context must window + roll back like any other.
    ASSERT_EQ(probe.admit(1), 2u);
    ASSERT_EQ(spec.admit(1), 2u);
    step_tok = nn::Tensor({kBatch, d_token});
    feed_step(8);
    feed_window_and_rollback({1, 2, 4}, 400);
    feed_step(9);
}

// ---- sampler identity pins --------------------------------------------------

TEST_F(SpecFixture, ForcedAllRejectIsByteIdenticalToPlainPath) {
    constexpr std::size_t kStreams = 10;
    const auto dist = data->initial_event_distribution();
    const core::Sampler plain(*model, *tokenizer, dist, base_config(6));
    auto cfg = spec_config(4, 6);
    cfg.spec_force_reject = true;  // drafting runs, every candidate rejects
    cfg.spec_verify_all = true;    // verify forward + full rollback still run
    const core::Sampler spec(*model, *tokenizer, dist, cfg);

    auto r_plain = forked(42, kStreams);
    auto r_spec = forked(42, kStreams);
    const auto want = sorted_by_ue(plain.generate_batch(std::span(r_plain), "rej", 0));
    core::Sampler::StageTimes times;
    const auto got = sorted_by_ue(spec.generate_batch(std::span(r_spec), "rej", 0, &times));
    ASSERT_EQ(want.size(), got.size());
    for (std::size_t i = 0; i < want.size(); ++i) expect_streams_identical(want[i], got[i]);

    // The knobs must actually have exercised the speculative machinery.
    EXPECT_GT(times.spec_proposed, 0u);
    EXPECT_EQ(times.spec_accepted, 0u);
    EXPECT_GT(times.verify_steps, 0u);

    // Same identity under continuous refill (the speculative branch of the
    // SlotBatch step with rows joining mid-decode): capacity below the
    // stream count, so late streams are admitted as earlier ones retire. The
    // reference is the *plain* sampler's SlotBatch under the identical
    // schedule.
    auto run_slots = [&](const core::Sampler& sampler) {
        auto rngs = forked(42, kStreams);
        auto batch = sampler.make_slot_batch(6);
        std::vector<core::Sampler::SlotBatch::Finished> finished;
        std::size_t next = 0;
        while (next < kStreams || batch.live() > 0) {
            while (next < kStreams && batch.free_slots() > 0) {
                char id[64];
                std::snprintf(id, sizeof(id), "rej-%06zu", next);
                batch.admit(rngs[next], id, next);
                ++next;
            }
            batch.step(finished);
        }
        std::vector<trace::Stream> streams;
        for (auto& f : finished) {
            EXPECT_FALSE(f.evicted);
            streams.push_back(std::move(f.stream));
        }
        return sorted_by_ue(std::move(streams));
    };
    const auto want_slots = run_slots(plain);
    const auto got_slots = run_slots(spec);
    ASSERT_EQ(want_slots.size(), kStreams);
    ASSERT_EQ(got_slots.size(), kStreams);
    for (std::size_t i = 0; i < kStreams; ++i) {
        expect_streams_identical(want_slots[i], got_slots[i]);
    }
}

TEST_F(SpecFixture, GreedyDecodingIsByteIdenticalAtEverySpecK) {
    constexpr std::size_t kStreams = 8;
    const auto dist = data->initial_event_distribution();
    auto plain_cfg = base_config(4);
    plain_cfg.temperature = 0.0;  // argmax events, mean interarrival
    const core::Sampler plain(*model, *tokenizer, dist, plain_cfg);
    auto r_plain = forked(7, kStreams);
    const auto want = sorted_by_ue(plain.generate_batch(std::span(r_plain), "greedy", 0));

    for (std::size_t k : {std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
        auto cfg = spec_config(k, 4);
        cfg.temperature = 0.0;
        const core::Sampler spec(*model, *tokenizer, dist, cfg);
        auto r_spec = forked(7, kStreams);
        core::Sampler::StageTimes times;
        const auto got =
            sorted_by_ue(spec.generate_batch(std::span(r_spec), "greedy", 0, &times));
        ASSERT_EQ(want.size(), got.size()) << "spec_k=" << k;
        for (std::size_t i = 0; i < want.size(); ++i) expect_streams_identical(want[i], got[i]);
        // Greedy rows never speculate, so no drafts may have been proposed.
        EXPECT_EQ(times.spec_proposed, 0u) << "spec_k=" << k;
        EXPECT_EQ(times.verify_steps, 0u) << "spec_k=" << k;
    }
}

TEST_F(SpecFixture, SpecK1DegeneratesToPlainPathExactly) {
    constexpr std::size_t kStreams = 8;
    const auto dist = data->initial_event_distribution();
    const core::Sampler plain(*model, *tokenizer, dist, base_config(4));
    // spec_k = 1 with a drafter attached must take the plain path verbatim.
    const core::Sampler spec1(*model, *tokenizer, dist, spec_config(1, 4));
    auto r_plain = forked(3, kStreams);
    auto r_spec = forked(3, kStreams);
    const auto want = sorted_by_ue(plain.generate_batch(std::span(r_plain), "k1", 0));
    core::Sampler::StageTimes times;
    const auto got = sorted_by_ue(spec1.generate_batch(std::span(r_spec), "k1", 0, &times));
    ASSERT_EQ(want.size(), got.size());
    for (std::size_t i = 0; i < want.size(); ++i) expect_streams_identical(want[i], got[i]);
    EXPECT_EQ(times.spec_proposed, 0u);
    EXPECT_EQ(times.verify_steps, 0u);

    // An oversized spec_k clamps to max_stream_len (itself clamped to the
    // model context) instead of overrunning the decoder window arena.
    const core::Sampler clamped(*model, *tokenizer, dist, spec_config(1000, 4));
    EXPECT_EQ(clamped.config().spec_k, clamped.config().max_stream_len);
}

TEST_F(SpecFixture, GenerateBatchStopsExactlyAtTheLengthCap) {
    // A model whose stop head is biased hard toward "continue" runs every
    // stream to max_stream_len, plain and speculative alike: the cap retires
    // the row on the token that reaches it, never earlier or later.
    constexpr std::size_t kStreams = 5;
    util::Rng init(21);
    core::CptGpt biased(*tokenizer, tiny_config(), init);
    for (const auto& np : biased.named_parameters("cptgpt.")) {
        if (np.name == "cptgpt.stop_head.fc2.bias") {
            auto bias = np.param->value.data();
            bias[0] = 8.0f;   // continue
            bias[1] = -8.0f;  // stop
        }
    }
    const auto dist = data->initial_event_distribution();
    const std::size_t max_seq = tiny_config().max_seq_len;
    for (const std::size_t cap : {std::size_t{2}, std::size_t{7}, max_seq}) {
        for (const std::size_t k : {std::size_t{1}, std::size_t{4}}) {
            auto cfg = k > 1 ? spec_config(k, kStreams) : base_config(kStreams);
            cfg.max_stream_len = cap;
            const core::Sampler sampler(biased, *tokenizer, dist, cfg);
            auto rngs = forked(5, kStreams);
            core::Sampler::StageTimes times;
            const auto streams = sampler.generate_batch(std::span(rngs), "cap", 0, &times);
            ASSERT_EQ(streams.size(), kStreams) << "cap=" << cap << " spec_k=" << k;
            for (const auto& s : streams) {
                EXPECT_EQ(s.events.size(), cap) << s.ue_id << " cap=" << cap << " spec_k=" << k;
            }
            // One bootstrap event plus one committed token per plain step.
            if (k == 1) {
                EXPECT_EQ(times.steps, cap - 1) << "cap=" << cap;
            }
        }
    }
}

// ---- scheduler pins ----------------------------------------------------------

TEST_F(SpecFixture, SlotBatchSpecMatchesGenerateBatchByteForByte) {
    constexpr std::size_t kStreams = 8;
    const auto dist = data->initial_event_distribution();
    const core::Sampler spec(*model, *tokenizer, dist, spec_config(4, kStreams));

    auto rngs = forked(11, kStreams);
    auto rngs_copy = rngs;
    const auto want = sorted_by_ue(spec.generate_batch(std::span(rngs_copy), "pin", 0));
    ASSERT_EQ(want.size(), kStreams);

    auto batch = spec.make_slot_batch(kStreams);
    char id[64];
    for (std::size_t i = 0; i < kStreams; ++i) {
        std::snprintf(id, sizeof(id), "pin-%06zu", i);
        batch.admit(rngs[i], id, i);
    }
    std::vector<core::Sampler::SlotBatch::Finished> finished;
    while (batch.live() > 0) batch.step(finished);
    ASSERT_EQ(finished.size(), kStreams);
    std::vector<trace::Stream> got;
    for (auto& f : finished) {
        EXPECT_FALSE(f.evicted);
        got.push_back(std::move(f.stream));
    }
    got = sorted_by_ue(std::move(got));
    for (std::size_t i = 0; i < kStreams; ++i) expect_streams_identical(want[i], got[i]);

    const auto& times = batch.stage_times();
    EXPECT_GT(times.spec_proposed, 0u);
    EXPECT_GT(times.steps, 0u);
}

TEST_F(SpecFixture, ChurnWithMixedSpecKIsDeterministicAndForceRejectInert) {
    const auto dist = data->initial_event_distribution();
    // Slot batches over the same weights at mixed spec_k. Each runs an
    // admit/evict churn schedule: capacity 3 for 6 streams (continuous
    // refill) with the first live stream evicted mid-decode once a couple of
    // steps have run.
    constexpr std::size_t kStreams = 6;
    const auto rngs = forked(99, kStreams);

    auto run_churn = [&](const core::Sampler& sampler) {
        auto batch = sampler.make_slot_batch(3);
        std::vector<core::Sampler::SlotBatch::Finished> finished;
        std::size_t next = 0;
        bool evicted_one = false;
        std::size_t steps = 0;
        while (next < kStreams || batch.live() > 0) {
            while (next < kStreams && batch.free_slots() > 0) {
                char id[64];
                std::snprintf(id, sizeof(id), "churn-%06zu", next);
                batch.admit(rngs[next], id, next);
                ++next;
            }
            batch.step(finished);
            if (!evicted_one && ++steps >= 2 && batch.live() > 0) {
                // Deadline-style eviction: drop the lowest live ticket. The
                // retired set is deterministic, so so is the choice.
                std::vector<bool> retired(kStreams, false);
                for (const auto& f : finished) retired[f.ticket] = true;
                for (std::size_t t = 0; t < next && !evicted_one; ++t) {
                    if (retired[t]) continue;
                    evicted_one = batch.evict([t](std::uint64_t x) { return x == t; },
                                              finished) == 1;
                }
            }
        }
        EXPECT_TRUE(evicted_one);
        return finished;
    };

    // Forced-all-reject speculation through the identical churn schedule is
    // byte-identical to the plain engine, evictions and partial streams
    // included: rounds commit one token each, so admission, compaction, and
    // eviction unfold in lockstep with the plain path.
    const core::Sampler plain(*model, *tokenizer, dist, base_config(3));
    auto inert_cfg = spec_config(4, 3);
    inert_cfg.spec_force_reject = true;
    inert_cfg.spec_verify_all = true;
    const core::Sampler inert(*model, *tokenizer, dist, inert_cfg);
    const auto want = run_churn(plain);
    const auto inert_got = run_churn(inert);
    ASSERT_EQ(want.size(), kStreams);
    ASSERT_EQ(inert_got.size(), kStreams);
    for (std::size_t i = 0; i < kStreams; ++i) {
        EXPECT_EQ(want[i].ticket, inert_got[i].ticket);
        EXPECT_EQ(want[i].evicted, inert_got[i].evicted);
        expect_streams_identical(want[i].stream, inert_got[i].stream);
    }

    // Live speculation at mixed spec_k: each batch's churn (including which
    // ticket gets evicted and the evicted stream's partial content) must be
    // reproducible run-to-run.
    for (std::size_t k : {std::size_t{2}, std::size_t{4}}) {
        const core::Sampler spec(*model, *tokenizer, dist, spec_config(k, 3));
        const auto first = run_churn(spec);
        const auto again = run_churn(spec);
        ASSERT_EQ(first.size(), kStreams) << "spec_k=" << k;
        ASSERT_EQ(again.size(), kStreams) << "spec_k=" << k;
        std::size_t evictions = 0;
        for (std::size_t i = 0; i < kStreams; ++i) {
            EXPECT_EQ(first[i].ticket, again[i].ticket) << "spec_k=" << k;
            EXPECT_EQ(first[i].evicted, again[i].evicted) << "spec_k=" << k;
            expect_streams_identical(first[i].stream, again[i].stream);
            if (first[i].evicted) ++evictions;
        }
        EXPECT_EQ(evictions, 1u) << "spec_k=" << k;
    }
}

}  // namespace
}  // namespace cpt
