// Tests pinning the KV-cached TransformerDecoder to the autograd forward:
// step-by-step decoding must reproduce Transformer::forward()'s last-position
// outputs, including after compaction — plus the row-invariance contract, on
// every SIMD tier: under any randomized schedule of admissions and
// compactions, every live row's output is byte-identical to a fresh decoder
// fed the same stream, and a SlotBatch stream is byte-identical whether it
// decodes alone or among 15 co-residents. A decoder also runs entirely on its
// caller's thread: its steps never wait for the global thread pool.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cstring>
#include <exception>
#include <future>
#include <random>
#include <thread>

#include "core/model.hpp"
#include "core/sampler.hpp"
#include "nn/infer.hpp"
#include "trace/synthetic.hpp"
#include "util/cpu.hpp"
#include "util/thread_pool.hpp"

namespace cpt::nn {
namespace {

using util::SimdTier;

TransformerConfig small_config() {
    TransformerConfig cfg;
    cfg.d_token = 7;
    cfg.d_model = 16;
    cfg.heads = 2;
    cfg.mlp_hidden = 32;
    cfg.blocks = 2;
    cfg.max_seq_len = 12;
    return cfg;
}

TEST(TransformerDecoderTest, MatchesFullForwardPerStep) {
    util::Rng rng(1);
    const Transformer model(small_config(), rng);
    const std::size_t b = 3;
    const std::size_t steps = 9;
    const Tensor sequence = Tensor::randn(rng, {b, steps, 7}, 0.6f);

    TransformerDecoder decoder(model, b);
    for (std::size_t t = 0; t < steps; ++t) {
        // Feed token t of each row.
        Tensor x({b, 7});
        for (std::size_t r = 0; r < b; ++r) {
            for (std::size_t j = 0; j < 7; ++j) x[r * 7 + j] = sequence[(r * steps + t) * 7 + j];
        }
        const Tensor h = decoder.step(x);
        EXPECT_EQ(decoder.length(), t + 1);

        // Reference: full forward over the prefix [0, t].
        Tensor prefix({b, t + 1, 7});
        for (std::size_t r = 0; r < b; ++r) {
            for (std::size_t k = 0; k <= t; ++k) {
                for (std::size_t j = 0; j < 7; ++j) {
                    prefix[(r * (t + 1) + k) * 7 + j] = sequence[(r * steps + k) * 7 + j];
                }
            }
        }
        const Var ref = model.forward(make_var(prefix));
        for (std::size_t r = 0; r < b; ++r) {
            for (std::size_t j = 0; j < 16; ++j) {
                EXPECT_NEAR(h[r * 16 + j], ref->value[(r * (t + 1) + t) * 16 + j], 2e-4f)
                    << "t=" << t << " row=" << r << " j=" << j;
            }
        }
    }
}

TEST(TransformerDecoderTest, CompactionPreservesKeptRows) {
    util::Rng rng(2);
    const Transformer model(small_config(), rng);
    const std::size_t b = 4;
    const Tensor seq = Tensor::randn(rng, {b, 6, 7}, 0.6f);

    TransformerDecoder full(model, b);
    TransformerDecoder compacted(model, b);
    auto token_at = [&](std::size_t t, const std::vector<std::size_t>& rows) {
        Tensor x({rows.size(), 7});
        for (std::size_t i = 0; i < rows.size(); ++i) {
            for (std::size_t j = 0; j < 7; ++j) x[i * 7 + j] = seq[(rows[i] * 6 + t) * 7 + j];
        }
        return x;
    };
    const std::vector<std::size_t> all{0, 1, 2, 3};
    const std::vector<std::size_t> kept{1, 3};

    // Three steps with all rows, then drop rows 0 and 2 and continue.
    for (std::size_t t = 0; t < 3; ++t) {
        full.step(token_at(t, all));
        compacted.step(token_at(t, all));
    }
    compacted.compact(kept);
    EXPECT_EQ(compacted.batch(), 2u);
    for (std::size_t t = 3; t < 6; ++t) {
        const Tensor hf = full.step(token_at(t, all));
        const Tensor hc = compacted.step(token_at(t, kept));
        for (std::size_t i = 0; i < kept.size(); ++i) {
            for (std::size_t j = 0; j < 16; ++j) {
                EXPECT_NEAR(hc[i * 16 + j], hf[kept[i] * 16 + j], 1e-5f);
            }
        }
    }
}

TEST(TransformerDecoderTest, RejectsOverflowAndBadShapes) {
    util::Rng rng(3);
    const Transformer model(small_config(), rng);
    TransformerDecoder decoder(model, 2);
    EXPECT_THROW(decoder.step(Tensor::zeros({2, 5})), std::invalid_argument);
    EXPECT_THROW(decoder.step(Tensor::zeros({3, 7})), std::invalid_argument);
    for (int t = 0; t < 12; ++t) decoder.step(Tensor::zeros({2, 7}));
    EXPECT_THROW(decoder.step(Tensor::zeros({2, 7})), std::logic_error);
    EXPECT_THROW(decoder.compact({1, 0}), std::invalid_argument);  // not ascending
    EXPECT_THROW(decoder.compact({5}), std::invalid_argument);     // out of range
}

// Decode runs on its caller's thread. While another thread holds every lane
// of a 4-thread global pool, a decoder at an Engine-like shape (batch 32,
// d_model 64, MLP 256, 2 blocks) must still finish its steps. A decoder that
// opened pool regions would wait on the pool until the holder let go; the
// holder is released on every path, so such a decoder fails this test
// instead of hanging it.
TEST(TransformerDecoderTest, StepNeverWaitsForTheGlobalPool) {
    const std::size_t prev_threads = util::configured_threads();
    util::set_global_threads(4);
    TransformerConfig cfg;
    cfg.d_token = 7;
    cfg.d_model = 64;
    cfg.heads = 4;
    cfg.mlp_hidden = 256;
    cfg.blocks = 2;
    cfg.max_seq_len = 8;
    util::Rng rng(17);
    const Transformer model(cfg, rng);
    const Tensor x = Tensor::randn(rng, {32, 7}, 0.5f);

    std::atomic<bool> holding{false};
    std::atomic<bool> release{false};
    std::thread holder([&] {
        util::global_pool().parallel_for(4, 1, [&](std::size_t begin, std::size_t) {
            if (begin == 0) holding.store(true);
            while (!release.load()) std::this_thread::sleep_for(std::chrono::microseconds(200));
        });
    });
    std::promise<void> done;
    std::future<void> finished = done.get_future();
    std::thread decoding;
    {
        // Releases the holder and joins both threads on every exit path.
        struct Cleanup {
            std::atomic<bool>& release;
            std::thread& holder;
            std::thread& decoding;
            ~Cleanup() {
                release.store(true);
                holder.join();
                if (decoding.joinable()) decoding.join();
            }
        } cleanup{release, holder, decoding};
        while (!holding.load()) std::this_thread::yield();
        decoding = std::thread([&] {
            try {
                TransformerDecoder decoder(model, 32);
                for (int step = 0; step < 4; ++step) decoder.step(x);
                done.set_value();
            } catch (...) {
                done.set_exception(std::current_exception());
            }
        });
        EXPECT_EQ(finished.wait_for(std::chrono::seconds(5)), std::future_status::ready)
            << "4 decoder steps did not finish while another thread held the global pool";
    }
    util::set_global_threads(prev_threads);
    EXPECT_NO_THROW(finished.get());
}

// Property test for the logical->physical row map + free list behind
// compact()/admit(): under a randomized admit/evict churn schedule, every
// surviving row's per-step output must be BYTE-identical to a fresh batch=1
// decoder fed that row's token history from position 0 (the invariance that
// lets a serving scheduler refill freed slots mid-decode). The capacity of
// 12 lets the batch cross 8 rows, where kernels have switched row tiles.
void run_churn_property(unsigned schedule_seed) {
    util::Rng rng(6);
    TransformerConfig cfg = small_config();
    cfg.max_seq_len = 20;
    const Transformer model(cfg, rng);
    const std::size_t cap = 12;
    const std::size_t dt = cfg.d_token;
    const std::size_t dm = cfg.d_model;

    struct StreamLog {
        std::vector<float> tokens;   // concatenated [d_token] inputs
        std::vector<float> outputs;  // concatenated [d_model] hidden states
    };

    std::mt19937 gen(schedule_seed);
    std::uniform_real_distribution<float> tok_dist(-0.8f, 0.8f);
    TransformerDecoder churned(model, cap);
    churned.reset();
    std::vector<StreamLog> live;       // index == decoder row
    std::vector<StreamLog> survivors;  // rows evicted or drained, kept for checking

    const std::size_t steps = cfg.max_seq_len;
    for (std::size_t t = 0; t < steps; ++t) {
        // Randomly evict a subset (keeping >= 1 row when any are live).
        if (live.size() > 1) {
            std::vector<std::size_t> keep;
            for (std::size_t r = 0; r < live.size(); ++r) {
                if (keep.size() + (live.size() - r) > 1 && gen() % 4 == 0) {
                    survivors.push_back(std::move(live[r]));  // evicted mid-decode
                } else {
                    keep.push_back(r);
                }
            }
            if (keep.size() != live.size()) {
                churned.compact(keep);
                std::vector<StreamLog> kept;
                kept.reserve(keep.size());
                for (std::size_t r : keep) kept.push_back(std::move(live[r]));
                live = std::move(kept);
            }
        }
        // Randomly admit into free slots (always admit when empty). A row
        // admitted at position s can still decode max_seq_len - s tokens.
        const std::size_t remaining = cfg.max_seq_len - churned.length();
        if (remaining >= 2) {
            std::size_t want = 0;
            for (std::size_t f = live.size(); f < cap; ++f) {
                if (live.empty() || gen() % 3 == 0) ++want;
            }
            if (want > 0) {
                churned.admit(want);
                for (std::size_t i = 0; i < want; ++i) live.emplace_back();
            }
        }
        if (live.empty()) break;

        Tensor x({live.size(), dt});
        for (std::size_t r = 0; r < live.size(); ++r) {
            for (std::size_t j = 0; j < dt; ++j) {
                const float v = tok_dist(gen);
                x[r * dt + j] = v;
                live[r].tokens.push_back(v);
            }
        }
        const Tensor& h = churned.step(x);
        for (std::size_t r = 0; r < live.size(); ++r) {
            const auto row = h.data().subspan(r * dm, dm);
            live[r].outputs.insert(live[r].outputs.end(), row.begin(), row.end());
        }
    }
    for (auto& s : live) survivors.push_back(std::move(s));

    // Every stream the churned decoder produced must match a fresh batch=1
    // decode of the same tokens, bit for bit.
    ASSERT_GT(survivors.size(), cap);  // the schedule actually churned
    for (std::size_t s = 0; s < survivors.size(); ++s) {
        const auto& log = survivors[s];
        const std::size_t len = log.tokens.size() / dt;
        ASSERT_EQ(log.outputs.size(), len * dm);
        if (len == 0) continue;
        TransformerDecoder fresh(model, 1);
        for (std::size_t t = 0; t < len; ++t) {
            Tensor x({1, dt});
            std::copy_n(log.tokens.data() + t * dt, dt, x.data().data());
            const Tensor& h = fresh.step(x);
            ASSERT_EQ(std::memcmp(h.data().data(), log.outputs.data() + t * dm,
                                  dm * sizeof(float)),
                      0)
                << "tier " << util::simd_tier_name(util::active_simd_tier()) << " stream " << s
                << " step " << t << " of " << len;
        }
    }
}

TEST(TransformerDecoderTest, ChurnRowMapPropertyFp32Kv) {
    for (SimdTier tier : util::available_simd_tiers()) {
        util::ScopedSimdTier guard(tier);
        for (unsigned seed : {101u, 202u, 303u}) run_churn_property(seed);
    }
}

// The SlotBatch determinism contract as stated in core/sampler.hpp: a
// stream's content is a pure function of its Rng, whichever other streams
// share the batch. Each target Rng is decoded alone, then admitted among 15
// co-residents; the two streams must match byte for byte on every tier.
TEST(SlotBatchInvarianceTest, StreamAloneEqualsStreamAmongFifteenCoResidents) {
    trace::SyntheticWorldConfig wcfg;
    wcfg.population = {30, 0, 0};
    wcfg.seed = 23;
    const auto world = trace::SyntheticWorldGenerator(wcfg).generate();
    const auto tok = core::Tokenizer::fit(world);
    core::CptGptConfig cfg;
    cfg.d_model = 16;
    cfg.heads = 2;
    cfg.mlp_hidden = 32;
    cfg.blocks = 2;
    cfg.max_seq_len = 24;
    cfg.head_hidden = 16;
    util::Rng init(8);
    const core::CptGpt model(tok, cfg, init);  // untrained: the contract is structural
    const core::Sampler sampler(model, tok, world.initial_event_distribution());
    using Finished = core::Sampler::SlotBatch::Finished;
    constexpr std::size_t kCoResidents = 15;

    for (SimdTier tier : util::available_simd_tiers()) {
        util::ScopedSimdTier guard(tier);
        util::Rng root(99);
        for (std::uint64_t target = 0; target < 3; ++target) {
            const util::Rng rng = root.fork(1000 + target);
            auto alone = sampler.make_slot_batch(1);
            alone.admit(rng, "target", target);
            std::vector<Finished> solo;
            while (alone.live() > 0) alone.step(solo);
            ASSERT_EQ(solo.size(), 1u);

            auto shared = sampler.make_slot_batch(kCoResidents + 1);
            for (std::uint64_t i = 0; i < kCoResidents; ++i) {
                if (i == kCoResidents / 2) shared.admit(rng, "target", target);
                shared.admit(root.fork(i), "co-" + std::to_string(i), 100 + i);
            }
            std::vector<Finished> fin;
            while (shared.live() > 0) shared.step(fin);
            ASSERT_EQ(fin.size(), kCoResidents + 1);
            const trace::Stream* got = nullptr;
            for (const auto& f : fin) {
                if (f.ticket == target) got = &f.stream;
            }
            ASSERT_NE(got, nullptr);
            const auto& want = solo[0].stream.events;
            ASSERT_EQ(got->events.size(), want.size())
                << "tier " << util::simd_tier_name(tier) << " target " << target;
            for (std::size_t j = 0; j < want.size(); ++j) {
                EXPECT_EQ(got->events[j].type, want[j].type);
                EXPECT_EQ(std::bit_cast<std::uint64_t>(got->events[j].timestamp),
                          std::bit_cast<std::uint64_t>(want[j].timestamp))
                    << "tier " << util::simd_tier_name(tier) << " target " << target << " event "
                    << j;
            }
        }
    }
}

TEST(CptGptDecodeTest, DecodeStepMatchesForwardHeads) {
    util::Rng world_rng(4);
    const core::Tokenizer tok(cellular::Generation::kLte4G, 0.0, 8.0);
    core::CptGptConfig cfg;
    cfg.d_model = 16;
    cfg.heads = 2;
    cfg.mlp_hidden = 32;
    cfg.blocks = 1;
    cfg.max_seq_len = 10;
    cfg.head_hidden = 16;
    util::Rng rng(5);
    const core::CptGpt model(tok, cfg, rng);

    const std::size_t b = 2;
    const std::size_t steps = 6;
    const Tensor sequence = Tensor::randn(world_rng, {b, steps, tok.d_token()}, 0.4f);
    auto decoder = model.make_decoder(b);
    for (std::size_t t = 0; t < steps; ++t) {
        Tensor x({b, tok.d_token()});
        const std::size_t dt = tok.d_token();
        for (std::size_t r = 0; r < b; ++r) {
            for (std::size_t j = 0; j < dt; ++j) x[r * dt + j] = sequence[(r * steps + t) * dt + j];
        }
        const auto inc = model.decode_step(decoder, x);

        Tensor prefix({b, t + 1, dt});
        for (std::size_t r = 0; r < b; ++r) {
            for (std::size_t k = 0; k <= t; ++k) {
                for (std::size_t j = 0; j < dt; ++j) {
                    prefix[(r * (t + 1) + k) * dt + j] = sequence[(r * steps + k) * dt + j];
                }
            }
        }
        const auto ref = model.forward(make_var(prefix));
        for (std::size_t r = 0; r < b; ++r) {
            const std::size_t last_row = r * (t + 1) + t;
            for (std::size_t e = 0; e < 6; ++e) {
                EXPECT_NEAR(inc.event_logits[r * 6 + e], ref.event_logits->value[last_row * 6 + e],
                            2e-4f);
            }
            EXPECT_NEAR(inc.ia_mu[r], ref.ia_mu->value[last_row], 2e-4f);
            EXPECT_NEAR(inc.ia_logvar[r], ref.ia_logvar->value[last_row], 2e-4f);
            EXPECT_NEAR(inc.stop_logits[r * 2], ref.stop_logits->value[last_row * 2], 2e-4f);
        }
    }
}

}  // namespace
}  // namespace cpt::nn
