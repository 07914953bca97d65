#include "trainer.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>

#include "nn/graph_lint.hpp"
#include "nn/optim.hpp"
#include "util/check.hpp"
#include "util/log.hpp"
#include "util/thread_pool.hpp"

namespace cpt::core {

namespace {

// A training window: `length` tokens of one stream starting at `start`, with
// next-token targets available for positions [0, targets).
struct Window {
    std::size_t stream = 0;
    std::size_t start = 0;
    std::size_t length = 0;
    std::size_t targets = 0;
};

struct EncodedStream {
    nn::Tensor tokens;                // [len, d_token]
    std::vector<int> event_ids;      // len
    std::vector<float> scaled_ia;    // len
    std::vector<int> stop_flags;     // len
};

// One training batch. The tensors are first_rows() views into capacity-sized
// backing storage owned by the same struct, so an epoch's batches reuse one
// allocation: fill_batch() resizes the views and rewrites the contents
// in place instead of allocating per step.
struct Batch {
    nn::Tensor tokens;               // [B, W, d_token] (view)
    std::vector<int> event_targets;  // B*W, kIgnoreIndex padded
    nn::Tensor ia_targets;           // [B*W] (view)
    std::vector<float> ia_mask;      // B*W
    std::vector<int> stop_targets;   // B*W

    nn::Tensor cap_tokens;  // [Bmax, W, d_token] backing storage
    nn::Tensor cap_ia;      // [Bmax * W] backing storage
};

std::vector<EncodedStream> encode_streams(const trace::Dataset& ds, const Tokenizer& tok,
                                          std::size_t max_len) {
    std::vector<EncodedStream> out;
    out.reserve(ds.streams.size());
    for (const auto& s : ds.streams) {
        if (s.length() < 2 || s.length() > max_len) continue;
        EncodedStream e;
        e.tokens = tok.encode(s, max_len);
        const auto ia = s.interarrivals();
        for (std::size_t k = 0; k < s.length(); ++k) {
            e.event_ids.push_back(s.events[k].type);
            e.scaled_ia.push_back(tok.scale_interarrival(ia[k]));
            e.stop_flags.push_back(k + 1 == s.length() ? 1 : 0);
        }
        out.push_back(std::move(e));
    }
    return out;
}

std::vector<Window> make_windows(const std::vector<EncodedStream>& streams, std::size_t window) {
    std::vector<Window> out;
    for (std::size_t i = 0; i < streams.size(); ++i) {
        const std::size_t len = streams[i].event_ids.size();
        for (std::size_t start = 0; start + 1 < len; start += window) {
            Window w;
            w.stream = i;
            w.start = start;
            w.length = std::min(window, len - start);
            w.targets = std::min(w.length, len - 1 - start);
            out.push_back(w);
        }
    }
    return out;
}

void fill_batch(Batch& batch, const std::vector<EncodedStream>& streams,
                std::span<const Window> windows, std::size_t window_len, std::size_t d_token,
                std::size_t capacity) {
    const std::size_t b = windows.size();
    if (batch.cap_tokens.numel() != capacity * window_len * d_token) {
        batch.cap_tokens = nn::Tensor({capacity, window_len, d_token});
        batch.cap_ia = nn::Tensor({capacity * window_len});
    }
    batch.tokens = batch.cap_tokens.first_rows(b);
    batch.ia_targets = batch.cap_ia.first_rows(b * window_len);
    batch.event_targets.assign(b * window_len, nn::kIgnoreIndex);
    batch.ia_mask.assign(b * window_len, 0.0f);
    batch.stop_targets.assign(b * window_len, nn::kIgnoreIndex);

    auto tokens = batch.tokens.data();
    std::fill(tokens.begin(), tokens.end(), 0.0f);
    auto ia_targets = batch.ia_targets.data();
    std::fill(ia_targets.begin(), ia_targets.end(), 0.0f);
    for (std::size_t row = 0; row < b; ++row) {
        const Window& w = windows[row];
        const EncodedStream& s = streams[w.stream];
        const auto src = s.tokens.data();
        for (std::size_t k = 0; k < w.length; ++k) {
            for (std::size_t j = 0; j < d_token; ++j) {
                tokens[(row * window_len + k) * d_token + j] = src[(w.start + k) * d_token + j];
            }
        }
        for (std::size_t k = 0; k < w.targets; ++k) {
            const std::size_t tgt = w.start + k + 1;
            const std::size_t flat = row * window_len + k;
            batch.event_targets[flat] = s.event_ids[tgt];
            ia_targets[flat] = s.scaled_ia[tgt];
            batch.ia_mask[flat] = 1.0f;
            batch.stop_targets[flat] = s.stop_flags[tgt];
        }
    }
}

// Windows per data-parallel shard (DESIGN.md §11). A constant, not a
// TrainConfig field or env var: the shard boundaries fix every floating-point
// reduction of a step, so the trained bytes depend on the data and the config
// alone, never on CPT_THREADS.
constexpr std::size_t kShardWindows = 4;

struct LossParts {
    double total = 0.0;
    double event_ce = 0.0;
    double ia = 0.0;
    double stop_ce = 0.0;

    void add(const LossParts& o, double weight = 1.0) {
        total += weight * o.total;
        event_ce += weight * o.event_ce;
        ia += weight * o.ia;
        stop_ce += weight * o.stop_ce;
    }
};

// The data-parallel batch step. A batch is cut into fixed shards of
// kShardWindows windows, and each shard runs forward (and backward) on its own
// global_pool() lane with its own tape arena, batch buffer and model: shard 0
// runs the master, every other shard a replica refreshed from the master's
// weights. Each shard's loss is scaled by its share of the batch's target
// positions, so the shard losses and gradients sum to the full-batch ones;
// the gradients are summed into the master's in ascending shard order. The
// nn ops open no pool region of their own, so a shard runs entirely on its
// lane's thread, and inside an outer parallel region (HubTrainer workers) the
// shards run serially with the same bytes.
class ShardedStep {
public:
    ShardedStep(CptGpt& master, const Tokenizer& tokenizer, const TrainConfig& config,
                std::size_t window_capacity)
        : master_(&master),
          config_(&config),
          d_token_(tokenizer.d_token()),
          params_(master.parameters()),
          shards_((window_capacity + kShardWindows - 1) / kShardWindows) {
        shards_[0].params = params_;
        for (std::size_t s = 1; s < shards_.size(); ++s) {
            util::Rng unused(0);  // the replica's init is overwritten by copy_weights
            shards_[s].replica = std::make_unique<CptGpt>(tokenizer, master.config(), unused);
            shards_[s].params = shards_[s].replica->parameters();
        }
    }

    // The weighted loss over `windows` (at most window_capacity) of `source`. With
    // `backprop`, the master's parameter grads are overwritten with its
    // gradient.
    LossParts run(std::span<const Window> windows, const std::vector<EncodedStream>& source,
                  bool backprop) {
        const std::size_t count = (windows.size() + kShardWindows - 1) / kShardWindows;
        CPT_CHECK_LE(count, shards_.size(), " ShardedStep: batch exceeds its shard capacity");
        std::size_t targets = 0;
        for (const Window& w : windows) targets += w.targets;
        util::global_pool().parallel_for(count, 1, [&](std::size_t s0, std::size_t s1) {
            for (std::size_t s = s0; s < s1; ++s) {
                const std::size_t first = s * kShardWindows;
                const auto shard_windows =
                    windows.subspan(first, std::min(kShardWindows, windows.size() - first));
                run_shard(s, shard_windows, source, targets, backprop);
            }
        });
        LossParts parts;
        for (std::size_t s = 0; s < count; ++s) parts.add(shards_[s].parts);
        if (backprop) {
            for (std::size_t p = 0; p < params_.size(); ++p) {
                for (std::size_t s = 1; s < count; ++s) {
                    const nn::Tensor& grad = shards_[s].params[p]->grad;
                    if (grad.numel() > 0) params_[p]->ensure_grad().add_(grad);
                }
            }
        }
        return parts;
    }

    // The master's weights moved: every replica re-copies them before its
    // next shard.
    void weights_changed() { ++version_; }

private:
    struct Shard {
        std::unique_ptr<CptGpt> replica;  // null for shard 0, which runs the master
        std::vector<nn::Var> params;      // of the shard's model
        std::uint64_t synced = 0;         // version_ the replica's weights were copied at
        nn::TapeArena arena;
        Batch batch;
        LossParts parts;  // already scaled by the shard's target share
    };

    void run_shard(std::size_t index, std::span<const Window> windows,
                   const std::vector<EncodedStream>& source, std::size_t batch_targets,
                   bool backprop) {
        Shard& shard = shards_[index];
        const CptGpt& model = shard.replica ? *shard.replica : *master_;
        if (shard.replica && shard.synced != version_) {
            copy_weights(*master_, *shard.replica);
            shard.synced = version_;
        }
        fill_batch(shard.batch, source, windows, config_->window, d_token_, kShardWindows);
        std::size_t targets = 0;
        for (const Window& w : windows) targets += w.targets;
        const double share = static_cast<double>(targets) / static_cast<double>(batch_targets);
        {
            nn::ArenaScope tape_scope(shard.arena);
            const Batch& batch = shard.batch;
            nn::Var tokens = nn::make_var(batch.tokens);
            const auto out = model.forward(tokens);
            nn::Var event_ce = nn::cross_entropy(out.event_logits, batch.event_targets);
            nn::Var ia_loss =
                model.config().distribution_head
                    ? nn::gaussian_nll(out.ia_mu, out.ia_logvar, batch.ia_targets, batch.ia_mask)
                    : nn::mse_masked(out.ia_mu, batch.ia_targets, batch.ia_mask);
            nn::Var stop_ce = nn::cross_entropy(out.stop_logits, batch.stop_targets);
            nn::Var loss = nn::add(nn::scale(event_ce, config_->w_event),
                                   nn::add(nn::scale(ia_loss, config_->w_interarrival),
                                           nn::scale(stop_ce, config_->w_stop)));
            CPT_CHECK_FINITE(loss->value[0], "Trainer: shard loss");
            shard.parts = {};
            shard.parts.add({loss->value[0], event_ce->value[0], ia_loss->value[0],
                             stop_ce->value[0]},
                            share);
            // In debug-check builds, lint shard 0's first tape: a structural
            // problem (detached param, dead gradient path) is a property of the
            // model wiring, not of any particular batch.
            if (index == 0 && !linted_) {
                linted_ = true;
                const auto lint = nn::lint_graph(loss, params_);
                if (!lint.clean()) util::warn(lint.summary());
            }
            if (backprop) {
                nn::zero_grad(shard.params);
                nn::backward(nn::scale(loss, static_cast<float>(share)));
            }
        }
        // The graph (and every arena tensor it pinned) is released; reclaim
        // the shard's buffers for its next batch.
        shard.arena.reset();
    }

    CptGpt* master_;
    const TrainConfig* config_;
    std::size_t d_token_;
    std::vector<nn::Var> params_;  // the master's
    std::vector<Shard> shards_;
    std::uint64_t version_ = 1;
    bool linted_ = !util::kDebugChecksEnabled;
};

}  // namespace

Trainer::Trainer(CptGpt& model, const Tokenizer& tokenizer, TrainConfig config)
    : model_(&model), tokenizer_(&tokenizer), config_(config) {
    CPT_CHECK_GT(config_.batch_size, std::size_t{0}, " Trainer: batch_size must be > 0");
    CPT_CHECK_GE(config_.window, std::size_t{2},
                 " Trainer: window must be >= 2 (a context token and a target)");
    if (config_.window > model.config().max_seq_len) {
        config_.window = model.config().max_seq_len;
    }
    CPT_CHECK_GE(config_.window, std::size_t{2},
                 " Trainer: window clamped to max_seq_len ", model.config().max_seq_len,
                 " must still be >= 2");
    CPT_CHECK(config_.val_fraction >= 0.0 && config_.val_fraction < 1.0,
              "Trainer: val_fraction must be in [0, 1), got ", config_.val_fraction);
    // lr == 0 is allowed: it trains without progress, which tests use to
    // exercise the early-stopping path.
    CPT_CHECK_GE(config_.lr, 0.0f, " Trainer: lr must be >= 0");
    CPT_CHECK_GE(config_.max_epochs, 1, " Trainer: max_epochs must be >= 1");
    CPT_CHECK_GE(config_.patience, 1, " Trainer: patience must be >= 1");
    CPT_CHECK_GT(config_.grad_clip, 0.0f, " Trainer: grad_clip must be > 0");
    CPT_CHECK(config_.min_lr_fraction > 0.0f && config_.min_lr_fraction <= 1.0f,
              "Trainer: min_lr_fraction must be in (0, 1], got ", config_.min_lr_fraction);
    CPT_CHECK_GE(config_.max_stream_len, std::size_t{2},
                 " Trainer: max_stream_len must be >= 2 (a stream needs a context token and a "
                 "target)");
}

float Trainer::cosine_lr(const TrainConfig& config, int epoch) {
    if (!config.lr_decay || config.max_epochs <= 1) return config.lr;
    // Cosine decay from lr to lr * min_lr_fraction.
    const double progress = static_cast<double>(epoch) / (config.max_epochs - 1);
    const double factor =
        config.min_lr_fraction +
        (1.0 - config.min_lr_fraction) * 0.5 * (1.0 + std::cos(progress * 3.14159265));
    return static_cast<float>(config.lr * factor);
}

TrainResult Trainer::train(const trace::Dataset& data) {
    const auto t0 = std::chrono::steady_clock::now();
    util::Rng rng(config_.seed);

    auto streams = encode_streams(data, *tokenizer_, config_.max_stream_len);
    CPT_CHECK(!streams.empty(), "Trainer::train: no trainable streams");

    // Deterministic train/val split at stream granularity.
    std::vector<std::size_t> order(streams.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    rng.shuffle(order);
    const std::size_t val_count = std::min<std::size_t>(
        std::max<std::size_t>(1, static_cast<std::size_t>(
                                      static_cast<double>(streams.size()) * config_.val_fraction)),
        streams.size() - 1);
    std::vector<EncodedStream> train_streams;
    std::vector<EncodedStream> val_streams;
    for (std::size_t i = 0; i < order.size(); ++i) {
        auto& dst = (i < val_count) ? val_streams : train_streams;
        dst.push_back(std::move(streams[order[i]]));
    }

    auto train_windows = make_windows(train_streams, config_.window);
    const auto val_windows = make_windows(val_streams, config_.window);

    nn::Adam opt(model_->parameters(), config_.lr);
    ShardedStep step(*model_, *tokenizer_, config_, config_.batch_size);
    TrainResult result;

    auto run_epoch = [&](const std::vector<Window>& windows, bool backprop,
                         const std::vector<EncodedStream>& source) -> LossParts {
        LossParts total;
        std::size_t batches = 0;
        for (std::size_t i = 0; i < windows.size(); i += config_.batch_size) {
            const std::size_t count = std::min(config_.batch_size, windows.size() - i);
            total.add(step.run({windows.data() + i, count}, source, backprop));
            if (backprop) {
                // Fused clip+update: one gradient pass instead of three.
                opt.step_clipped(config_.grad_clip);
                step.weights_changed();
                ++result.steps;
                result.tokens += count * config_.window;
            }
            ++batches;
        }
        LossParts mean;
        if (batches) mean.add(total, 1.0 / static_cast<double>(batches));
        return mean;
    };

    double best_val = std::numeric_limits<double>::max();
    int since_best = 0;
    for (int epoch = 0; epoch < config_.max_epochs; ++epoch) {
        opt.set_lr(cosine_lr(config_, epoch));
        rng.shuffle(train_windows);
        const LossParts train_parts = run_epoch(train_windows, true, train_streams);
        const LossParts val_parts =
            val_windows.empty() ? train_parts : run_epoch(val_windows, false, val_streams);
        result.train_loss.push_back(train_parts.total);
        result.val_loss.push_back(val_parts.total);
        result.final_event_ce = train_parts.event_ce;
        result.final_ia_loss = train_parts.ia;
        result.final_stop_ce = train_parts.stop_ce;
        ++result.epochs_run;
        if (config_.verbose) {
            std::printf("epoch %d  train %.4f (ev %.4f ia %.4f stop %.4f)  val %.4f\n", epoch,
                        train_parts.total, train_parts.event_ce, train_parts.ia,
                        train_parts.stop_ce, val_parts.total);
        }
        if (val_parts.total < best_val - 1e-4) {
            best_val = val_parts.total;
            result.best_epoch = epoch;
            since_best = 0;
        } else if (++since_best >= config_.patience) {
            break;
        }
    }
    result.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    return result;
}

double Trainer::batch_gradient(const trace::Dataset& data) {
    const auto streams = encode_streams(data, *tokenizer_, config_.max_stream_len);
    CPT_CHECK(!streams.empty(), "Trainer::batch_gradient: no trainable streams");
    const auto windows = make_windows(streams, config_.window);
    ShardedStep step(*model_, *tokenizer_, config_, windows.size());
    return step.run(windows, streams, true).total;
}

TrainResult Trainer::fine_tune(const trace::Dataset& data, double lr_scale, double epoch_scale) {
    TrainConfig saved = config_;
    config_.lr = static_cast<float>(config_.lr * lr_scale);
    config_.max_epochs =
        std::max(1, static_cast<int>(std::lround(config_.max_epochs * epoch_scale)));
    config_.patience = std::max(1, config_.patience - 1);
    TrainResult r = train(data);
    config_ = saved;
    return r;
}

}  // namespace cpt::core
