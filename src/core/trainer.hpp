// Supervised next-token training of CPT-GPT (paper §4.4-4.5), including the
// weighted multi-modality loss (cross-entropy for event type and stop flag,
// Gaussian NLL for the interarrival), early stopping on a validation split,
// and transfer learning (fine-tuning a pretrained model on a new hour's data,
// Design 3).
#pragma once

#include <cstdint>
#include <vector>

#include "model.hpp"
#include "trace/stream.hpp"

namespace cpt::core {

struct TrainConfig {
    std::size_t batch_size = 16;
    // Streams are chunked into windows of this many tokens for training.
    std::size_t window = 64;
    float lr = 1e-3f;
    int max_epochs = 30;
    // Early stopping: stop after this many epochs without val-loss improvement.
    int patience = 3;
    // Loss weights (Table 8 sweeps these).
    float w_event = 1.0f;
    float w_interarrival = 1.0f;
    float w_stop = 1.0f;
    float grad_clip = 1.0f;
    double val_fraction = 0.1;
    // Streams longer than this are dropped (paper §5.1 uses 500).
    std::size_t max_stream_len = 500;
    // Cosine learning-rate decay to lr * min_lr_fraction over max_epochs.
    bool lr_decay = true;
    float min_lr_fraction = 0.1f;
    std::uint64_t seed = 1;
    bool verbose = false;
};

struct TrainResult {
    int epochs_run = 0;
    int best_epoch = 0;   // epoch index (0-based) with the lowest val loss
    double seconds = 0.0; // wall-clock training time
    std::size_t steps = 0;   // optimizer updates performed
    std::size_t tokens = 0;  // window positions processed by those updates
    std::vector<double> train_loss;  // per epoch (weighted total)
    std::vector<double> val_loss;    // per epoch
    // Unweighted per-field training losses at the final epoch, useful for
    // diagnosing which modality limits fidelity.
    double final_event_ce = 0.0;
    double final_ia_loss = 0.0;
    double final_stop_ce = 0.0;
};

class Trainer {
public:
    // Validates `config` up front (positive batch size and learning rate,
    // window >= 2, val_fraction in [0, 1), ...); violations throw
    // std::invalid_argument.
    Trainer(CptGpt& model, const Tokenizer& tokenizer, TrainConfig config);

    // The learning rate used at `epoch` under the config's cosine schedule:
    // decays from lr to lr * min_lr_fraction across max_epochs (returns lr
    // unchanged when lr_decay is off or max_epochs == 1).
    static float cosine_lr(const TrainConfig& config, int epoch);

    // Trains from the model's current weights (so calling it on a pretrained
    // model IS transfer learning). Each step is data-parallel over fixed
    // shards of windows (DESIGN.md §11); the trained bytes do not depend on
    // CPT_THREADS.
    TrainResult train(const trace::Dataset& data);

    // Runs every window of `data`'s trainable streams as one batch (no
    // validation split, no shuffle) through train()'s sharded step, leaves the
    // batch gradient in the model's parameter grads, and returns the weighted
    // loss. No optimizer step; lets tests compare the sharded gradient with a
    // single-tape reference.
    double batch_gradient(const trace::Dataset& data);

    // Convenience for Design 3: fine-tunes with a reduced epoch budget and
    // learning rate. `epoch_scale` in (0, 1].
    TrainResult fine_tune(const trace::Dataset& data, double lr_scale = 0.5,
                          double epoch_scale = 0.4);

private:
    CptGpt* model_;
    const Tokenizer* tokenizer_;
    TrainConfig config_;
};

}  // namespace cpt::core
