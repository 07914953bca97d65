// Bit-determinism of the training path: identical loss trajectories and
// final weights across repeated runs and across thread counts, for both the
// single-model Trainer and the parallel HubTrainer. This is the contract that
// makes `CPT_THREADS` a pure performance knob for training. Also pins the
// data-parallel step against a single-tape full-batch gradient.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/hub_trainer.hpp"
#include "core/model.hpp"
#include "core/model_hub.hpp"
#include "core/trainer.hpp"
#include "nn/autograd.hpp"
#include "trace/synthetic.hpp"
#include "util/thread_pool.hpp"

namespace cpt::core {
namespace {

trace::Dataset phone_world(std::size_t n, std::uint64_t seed = 77) {
    trace::SyntheticWorldConfig cfg;
    cfg.population = {n, 0, 0};
    cfg.seed = seed;
    return trace::SyntheticWorldGenerator(cfg).generate();
}

CptGptConfig tiny_config() {
    CptGptConfig cfg;
    cfg.d_model = 24;
    cfg.heads = 2;
    cfg.mlp_hidden = 48;
    cfg.blocks = 1;
    cfg.max_seq_len = 64;
    cfg.head_hidden = 24;
    return cfg;
}

TrainConfig tiny_train_config(std::size_t batch_size = 8) {
    TrainConfig cfg;
    cfg.max_epochs = 3;
    cfg.patience = 10;
    cfg.window = 32;
    cfg.batch_size = batch_size;
    return cfg;
}

// Restores the single-thread pool on scope exit so later tests see the
// default configuration.
struct ThreadCountGuard {
    ~ThreadCountGuard() { util::set_global_threads(1); }
};

std::vector<std::vector<float>> snapshot_weights(const CptGpt& model) {
    std::vector<std::vector<float>> out;
    for (const auto& np : model.named_parameters()) {
        const auto d = np.param->value.data();
        out.emplace_back(d.begin(), d.end());
    }
    return out;
}

// Trains a fresh tiny model on `data` and returns the loss trajectory plus a
// snapshot of the final weights.
std::pair<TrainResult, std::vector<std::vector<float>>> train_once(const trace::Dataset& data,
                                                                   std::size_t batch_size = 8) {
    const auto tok = Tokenizer::fit(data);
    util::Rng rng(9);
    CptGpt model(tok, tiny_config(), rng);
    Trainer trainer(model, tok, tiny_train_config(batch_size));
    TrainResult r = trainer.train(data);
    return {std::move(r), snapshot_weights(model)};
}

void expect_identical(const std::pair<TrainResult, std::vector<std::vector<float>>>& a,
                      const std::pair<TrainResult, std::vector<std::vector<float>>>& b) {
    ASSERT_EQ(a.first.train_loss.size(), b.first.train_loss.size());
    for (std::size_t e = 0; e < a.first.train_loss.size(); ++e) {
        EXPECT_EQ(a.first.train_loss[e], b.first.train_loss[e]) << "train epoch " << e;
    }
    ASSERT_EQ(a.first.val_loss.size(), b.first.val_loss.size());
    for (std::size_t e = 0; e < a.first.val_loss.size(); ++e) {
        EXPECT_EQ(a.first.val_loss[e], b.first.val_loss[e]) << "val epoch " << e;
    }
    EXPECT_EQ(a.first.steps, b.first.steps);
    EXPECT_EQ(a.first.tokens, b.first.tokens);
    ASSERT_EQ(a.second.size(), b.second.size());
    for (std::size_t p = 0; p < a.second.size(); ++p) {
        ASSERT_EQ(a.second[p].size(), b.second[p].size());
        for (std::size_t j = 0; j < a.second[p].size(); ++j) {
            ASSERT_EQ(a.second[p][j], b.second[p][j]) << "param " << p << " elem " << j;
        }
    }
}

TEST(TrainDeterminismTest, RepeatedRunsAreBitIdentical) {
    const auto world = phone_world(40);
    expect_identical(train_once(world), train_once(world));
}

// A batch of 8 windows is two full shards; 10 is shards of 4 + 4 + 2. Three
// threads split neither evenly. Each epoch ends on a partial batch.
TEST(TrainDeterminismTest, LossAndWeightsInvariantAcrossThreadCounts) {
    ThreadCountGuard guard;
    const auto world = phone_world(40);
    for (const std::size_t batch_size : {std::size_t{8}, std::size_t{10}}) {
        util::set_global_threads(1);
        const auto single = train_once(world, batch_size);
        const std::size_t window = tiny_train_config().window;
        EXPECT_LT(single.first.tokens, single.first.steps * batch_size * window)
            << "batch " << batch_size << ": no partial last batch";
        for (const std::size_t threads : {2, 3, 4}) {
            SCOPED_TRACE(testing::Message() << "batch " << batch_size << ", threads " << threads);
            util::set_global_threads(threads);
            expect_identical(single, train_once(world, batch_size));
        }
    }
}

// The single-tape reference: every window of `data` in one [B, W, d_token]
// batch, the trainer's weighted loss, one backward. Mirrors the trainer's
// windowing (consecutive `window`-token chunks; next-token targets).
// Returns the loss and the number of windows.
std::pair<double, std::size_t> single_tape_gradient(const CptGpt& model, const Tokenizer& tok,
                                                    const trace::Dataset& data,
                                                    const TrainConfig& cfg) {
    struct Win {
        const trace::Stream* stream;
        std::size_t start, length, targets;
    };
    std::vector<Win> wins;
    for (const auto& s : data.streams) {
        const std::size_t len = s.length();
        if (len < 2 || len > cfg.max_stream_len) continue;
        for (std::size_t start = 0; start + 1 < len; start += cfg.window) {
            const std::size_t length = std::min(cfg.window, len - start);
            wins.push_back({&s, start, length, std::min(length, len - 1 - start)});
        }
    }
    const std::size_t b = wins.size();
    const std::size_t w = cfg.window;
    const std::size_t d = tok.d_token();
    nn::Tensor tokens({b, w, d});
    nn::Tensor ia_targets({b * w});
    std::vector<int> event_targets(b * w, nn::kIgnoreIndex);
    std::vector<int> stop_targets(b * w, nn::kIgnoreIndex);
    std::vector<float> ia_mask(b * w, 0.0f);
    auto tok_data = tokens.data();
    auto ia_data = ia_targets.data();
    for (std::size_t row = 0; row < b; ++row) {
        const Win& win = wins[row];
        const auto enc = tok.encode(*win.stream, cfg.max_stream_len);
        const auto ia = win.stream->interarrivals();
        for (std::size_t k = 0; k < win.length; ++k) {
            for (std::size_t j = 0; j < d; ++j) {
                tok_data[(row * w + k) * d + j] = enc.data()[(win.start + k) * d + j];
            }
        }
        for (std::size_t k = 0; k < win.targets; ++k) {
            const std::size_t tgt = win.start + k + 1;
            const std::size_t flat = row * w + k;
            event_targets[flat] = win.stream->events[tgt].type;
            ia_data[flat] = tok.scale_interarrival(ia[tgt]);
            ia_mask[flat] = 1.0f;
            stop_targets[flat] = tgt + 1 == win.stream->length() ? 1 : 0;
        }
    }
    const auto out = model.forward(nn::make_var(tokens));
    nn::Var loss = nn::add(
        nn::scale(nn::cross_entropy(out.event_logits, event_targets), cfg.w_event),
        nn::add(nn::scale(nn::gaussian_nll(out.ia_mu, out.ia_logvar, ia_targets, ia_mask),
                          cfg.w_interarrival),
                nn::scale(nn::cross_entropy(out.stop_logits, stop_targets), cfg.w_stop)));
    nn::zero_grad(model.parameters());
    nn::backward(loss);
    return {loss->value[0], b};
}

std::vector<std::vector<float>> snapshot_grads(const CptGpt& model) {
    std::vector<std::vector<float>> out;
    for (const auto& p : model.parameters()) {
        const auto g = p->grad.data();
        out.emplace_back(g.begin(), g.end());
    }
    return out;
}

TEST(TrainDeterminismTest, ShardedBatchGradientMatchesSingleTape) {
    ThreadCountGuard guard;
    util::set_global_threads(3);
    const auto world = phone_world(6, 5);
    const auto tok = Tokenizer::fit(world);
    util::Rng rng(9);
    CptGpt model(tok, tiny_config(), rng);
    const TrainConfig cfg = tiny_train_config();

    const double sharded_loss = Trainer(model, tok, cfg).batch_gradient(world);
    const auto sharded = snapshot_grads(model);
    const auto [ref_loss, windows] = single_tape_gradient(model, tok, world, cfg);
    const auto ref = snapshot_grads(model);
    // Shards of 4 + 4 + ... + a partial one.
    EXPECT_GT(windows, 8u);
    EXPECT_NE(windows % 4, 0u);

    EXPECT_NEAR(sharded_loss, ref_loss, 1e-5 * std::abs(ref_loss));
    ASSERT_EQ(sharded.size(), ref.size());
    double total_norm = 0.0;
    for (const auto& g : ref) {
        for (const float x : g) total_norm += double{x} * x;
    }
    total_norm = std::sqrt(total_norm);
    ASSERT_GT(total_norm, 0.0);
    // Per parameter: the sharded sum reassociates the full-batch reductions,
    // so the two agree to float rounding. Some gradients are zero in exact
    // arithmetic (e.g. attention key biases), hence the absolute floor.
    for (std::size_t p = 0; p < ref.size(); ++p) {
        ASSERT_EQ(sharded[p].size(), ref[p].size());
        double diff = 0.0;
        double norm = 0.0;
        for (std::size_t j = 0; j < ref[p].size(); ++j) {
            const double d = double{sharded[p][j]} - ref[p][j];
            diff += d * d;
            norm += double{ref[p][j]} * ref[p][j];
        }
        EXPECT_LE(std::sqrt(diff), 1e-5 * std::sqrt(norm) + 1e-7 * total_norm) << "param " << p;
    }
}

TEST(TrainDeterminismTest, HubFineTuneMatchesSerialPerSlice) {
    ThreadCountGuard guard;
    const auto pretrain_world = phone_world(40, 101);
    const auto slice_a = phone_world(25, 102);
    const auto slice_b = phone_world(25, 103);
    const auto tok = Tokenizer::fit(pretrain_world);

    HubTrainOptions options;
    options.model = tiny_config();
    options.train = tiny_train_config();
    options.publish = false;  // determinism of training, not hub IO

    util::Rng rng(11);
    CptGpt pretrained(tok, options.model, rng);
    Trainer(pretrained, tok, options.train).train(pretrain_world);

    const std::vector<HubSlice> slices = {
        {trace::DeviceType::kPhone, 8, &slice_a},
        {trace::DeviceType::kPhone, 20, &slice_b},
    };

    ModelHub hub("unused_hub_dir");
    HubTrainer hub_trainer(hub, options);
    util::set_global_threads(1);
    const auto serial = hub_trainer.fine_tune_all(pretrained, tok, slices);
    util::set_global_threads(4);
    const auto parallel = hub_trainer.fine_tune_all(pretrained, tok, slices);

    ASSERT_EQ(serial.size(), slices.size());
    ASSERT_EQ(parallel.size(), slices.size());
    for (std::size_t i = 0; i < slices.size(); ++i) {
        EXPECT_EQ(serial[i].device, parallel[i].device);
        EXPECT_EQ(serial[i].hour_of_day, parallel[i].hour_of_day);
        ASSERT_EQ(serial[i].result.train_loss.size(), parallel[i].result.train_loss.size());
        for (std::size_t e = 0; e < serial[i].result.train_loss.size(); ++e) {
            EXPECT_EQ(serial[i].result.train_loss[e], parallel[i].result.train_loss[e])
                << "slice " << i << " epoch " << e;
        }
        EXPECT_EQ(serial[i].result.steps, parallel[i].result.steps);
    }

    // The hub's parallel fine-tune must reproduce what a plain serial
    // Trainer::fine_tune produces for each slice, seeded the same way.
    util::set_global_threads(1);
    util::Rng root(options.train.seed);
    for (std::size_t i = 0; i < slices.size(); ++i) {
        util::Rng init = root.fork(i);
        CptGpt model(tok, options.model, init);
        copy_weights(pretrained, model);
        TrainConfig cfg = options.train;
        cfg.seed = options.train.seed + i * 0x9E3779B97F4A7C15ull;
        Trainer trainer(model, tok, cfg);
        const auto ref = trainer.fine_tune(*slices[i].data, options.ft_lr_scale,
                                           options.ft_epoch_scale);
        ASSERT_EQ(ref.train_loss.size(), serial[i].result.train_loss.size());
        for (std::size_t e = 0; e < ref.train_loss.size(); ++e) {
            EXPECT_EQ(ref.train_loss[e], serial[i].result.train_loss[e])
                << "slice " << i << " epoch " << e;
        }
    }
}

}  // namespace
}  // namespace cpt::core
