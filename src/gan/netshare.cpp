#include "netshare.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>

#include "util/stats.hpp"

namespace cpt::gan {

using nn::Var;

namespace {

// Per-stream log-space interarrival normalization (NetShare's L5 trick).
struct StreamNorm {
    double log_min = 0.0;
    double log_max = 1.0;
};

StreamNorm stream_norm(const trace::Stream& s) {
    StreamNorm n;
    const auto ia = s.interarrivals();
    bool first = true;
    for (std::size_t i = 1; i < ia.size(); ++i) {
        const double l = std::log(ia[i] + 1.0);
        if (first) {
            n.log_min = l;
            n.log_max = l;
            first = false;
        } else {
            n.log_min = std::min(n.log_min, l);
            n.log_max = std::max(n.log_max, l);
        }
    }
    if (n.log_max <= n.log_min) n.log_max = n.log_min + 1e-6;
    return n;
}

}  // namespace

NetShareGenerator::NetShareGenerator(const core::Tokenizer& tokenizer,
                                     const NetShareConfig& config, util::Rng& rng)
    : tokenizer_(tokenizer),
      config_(config),
      num_events_(tokenizer.num_event_types()),
      sample_dim_(num_events_ + 2),
      meta_net_(config.noise_dim, 32, 2, rng),
      // Step input: per-step noise + metadata + previous step's S samples.
      lstm_(config.noise_dim + 2 + config.batch_generation * (num_events_ + 2),
            config.lstm_hidden, config.lstm_layers, rng),
      step_head_(config.lstm_hidden, config.batch_generation * (num_events_ + 2), rng),
      disc_(0, 0, 0, rng)  // replaced below once dimensions are known
{
    // Round the sequence length up to a whole number of batch-generation steps.
    const std::size_t s = config_.batch_generation;
    config_.max_seq_len = ((config_.max_seq_len + s - 1) / s) * s;
    const std::size_t disc_in = config_.max_seq_len * sample_dim_ + 2;
    disc_ = nn::Mlp(disc_in, config_.disc_hidden, 1, rng);
}

void NetShareGenerator::collect(const std::string& prefix,
                                std::vector<nn::NamedParam>& out) const {
    meta_net_.collect(prefix + "meta.", out);
    lstm_.collect(prefix + "lstm.", out);
    step_head_.collect(prefix + "step_head.", out);
    disc_.collect(prefix + "disc.", out);
}

NetShareGenerator::GeneratedBatch NetShareGenerator::generate_batch(std::size_t batch,
                                                                    util::Rng& rng) const {
    // RNG is advanced deterministically; graphs are rebuilt per call.
    auto noise = [&](std::size_t dim) {
        return nn::make_var(nn::Tensor::randn(rng, {batch, dim}, 1.0f));
    };

    GeneratedBatch out;
    out.metadata = nn::sigmoid(meta_net_.forward(noise(config_.noise_dim)));  // [B, 2]

    const std::size_t steps = config_.max_seq_len / config_.batch_generation;
    const std::size_t step_floats = config_.batch_generation * sample_dim_;
    auto state = lstm_.zero_state(batch);
    std::vector<Var> samples;  // each [B, sample_dim]
    samples.reserve(config_.max_seq_len);
    out.hard_samples = nn::Tensor({batch, config_.max_seq_len, sample_dim_});
    nn::Tensor prev({batch, step_floats});  // previous step's HARD samples, detached
    for (std::size_t step = 0; step < steps; ++step) {
        // Per-step noise conditioned on the metadata and the previous step's
        // sampled output (detached: no backprop across steps; hard samples so
        // the sequence the LSTM conditions on is the sequence being emitted —
        // the same teacher-forcing interface used in pretraining).
        Var input =
            nn::concat_lastdim({noise(config_.noise_dim), out.metadata, nn::make_var(prev)});
        auto [h, next] = lstm_.step(input, state);
        state = std::move(next);
        Var raw = step_head_.forward(h);  // [B, S * sample_dim]
        prev = nn::Tensor({batch, step_floats});
        for (std::size_t s = 0; s < config_.batch_generation; ++s) {
            const std::size_t base = s * sample_dim_;
            Var event_probs =
                nn::softmax_lastdim(nn::slice_lastdim(raw, base, num_events_));
            Var ia = nn::sigmoid(nn::slice_lastdim(raw, base + num_events_, 1));
            Var stop = nn::sigmoid(nn::slice_lastdim(raw, base + num_events_ + 1, 1));
            Var sample = nn::concat_lastdim({event_probs, ia, stop});
            // Draw the concrete sample: categorical event, Bernoulli stop.
            // Within a step the S samples are drawn independently — batch
            // generation's intra-batch independence (the paper's L4).
            const auto soft = sample->value.data();
            auto hard = out.hard_samples.data();
            auto fb = prev.data();
            const std::size_t pos = step * config_.batch_generation + s;
            for (std::size_t r = 0; r < batch; ++r) {
                const float* srow = soft.data() + r * sample_dim_;
                const std::size_t ev =
                    rng.categorical(std::span<const float>(srow, num_events_));
                float* hrow = hard.data() + (r * config_.max_seq_len + pos) * sample_dim_;
                for (std::size_t j = 0; j < sample_dim_; ++j) hrow[j] = 0.0f;
                hrow[ev] = 1.0f;
                hrow[num_events_] = srow[num_events_];
                hrow[num_events_ + 1] =
                    rng.bernoulli(static_cast<double>(srow[num_events_ + 1])) ? 1.0f : 0.0f;
                float* frow = fb.data() + r * step_floats + base;
                for (std::size_t j = 0; j < sample_dim_; ++j) frow[j] = hrow[j];
            }
            samples.push_back(std::move(sample));
        }
    }
    Var flat = nn::concat_lastdim(samples);  // [B, T * sample_dim]
    out.sequence = nn::reshape(flat, {batch, config_.max_seq_len, sample_dim_});
    return out;
}

void NetShareGenerator::encode_real(const trace::Stream& s, std::span<float> seq_dst,
                                    std::span<float> meta_dst) const {
    std::fill(seq_dst.begin(), seq_dst.end(), 0.0f);
    const StreamNorm norm = stream_norm(s);
    // Metadata: the per-stream min/max expressed on the tokenizer's global
    // [0, 1] log scale. NetShare proper also *normalizes* each stream's
    // interarrivals by these (its L5 mode-collapse mitigation) and decodes
    // against the generated metadata; at CPU scale that decode is fragile —
    // a slightly-collapsed metadata generator zeroes every interarrival — so
    // the interarrival field is coded on the global log scale (as in
    // CPT-GPT's tokenizer) and the per-stream min/max remain as
    // metadata features for the discriminator.
    meta_dst[0] = tokenizer_.scale_interarrival(std::exp(norm.log_min) - 1.0);
    meta_dst[1] = tokenizer_.scale_interarrival(std::exp(norm.log_max) - 1.0);

    const auto ia = s.interarrivals();
    const std::size_t len = std::min(s.length(), config_.max_seq_len);
    for (std::size_t k = 0; k < len; ++k) {
        float* row = seq_dst.data() + k * sample_dim_;
        row[s.events[k].type] = 1.0f;
        row[num_events_] = tokenizer_.scale_interarrival(ia[k]);
        // Stop flag only if the real stream actually ends inside the window.
        row[num_events_ + 1] = (k + 1 == s.length()) ? 1.0f : 0.0f;
    }
}

GanTrainResult NetShareGenerator::train(const trace::Dataset& data,
                                        const GanTrainConfig& config) {
    const auto t0 = std::chrono::steady_clock::now();
    util::Rng rng(config.seed);

    // Encode usable real streams once.
    std::vector<const trace::Stream*> usable;
    for (const auto& s : data.streams) {
        if (s.length() >= 2) usable.push_back(&s);
    }
    if (usable.empty()) throw std::invalid_argument("NetShareGenerator::train: no usable streams");
    const std::size_t seq_floats = config_.max_seq_len * sample_dim_;
    std::vector<float> real_seq(usable.size() * seq_floats);
    std::vector<float> real_meta(usable.size() * 2);
    for (std::size_t i = 0; i < usable.size(); ++i) {
        encode_real(*usable[i], {real_seq.data() + i * seq_floats, seq_floats},
                    {real_meta.data() + i * 2, 2});
    }

    // Moment-matching targets: per-column first AND second moments of the
    // encoded real data. Matching only the mean is satisfied by mode collapse
    // (every stream equal to the mean); the second moment penalizes variance
    // collapse, which is where the metadata generator otherwise degenerates.
    std::vector<float> seq_mean(seq_floats, 0.0f);
    std::vector<float> seq_sq(seq_floats, 0.0f);
    std::vector<float> meta_mean(2, 0.0f);
    std::vector<float> meta_sq(2, 0.0f);
    {
        for (std::size_t i = 0; i < usable.size(); ++i) {
            for (std::size_t j = 0; j < seq_floats; ++j) {
                const float v = real_seq[i * seq_floats + j];
                seq_mean[j] += v;
                seq_sq[j] += v * v;
            }
            for (std::size_t j = 0; j < 2; ++j) {
                const float v = real_meta[i * 2 + j];
                meta_mean[j] += v;
                meta_sq[j] += v * v;
            }
        }
        const auto n = static_cast<float>(usable.size());
        for (float& v : seq_mean) v /= n;
        for (float& v : seq_sq) v /= n;
        for (float& v : meta_mean) v /= n;
        for (float& v : meta_sq) v /= n;
    }
    const nn::Tensor seq_mean_t = nn::Tensor::from(seq_mean, {seq_floats});
    const nn::Tensor seq_sq_t = nn::Tensor::from(seq_sq, {seq_floats});
    const nn::Tensor meta_mean_t = nn::Tensor::from(meta_mean, {2});
    const nn::Tensor meta_sq_t = nn::Tensor::from(meta_sq, {2});
    const std::vector<float> seq_mask(seq_floats, 1.0f);
    const std::vector<float> meta_mask(2, 1.0f);

    // Split generator/discriminator parameters for alternating updates.
    std::vector<nn::NamedParam> named;
    meta_net_.collect("meta.", named);
    lstm_.collect("lstm.", named);
    step_head_.collect("step_head.", named);
    std::vector<Var> gen_params;
    for (auto& [n, p] : named) gen_params.push_back(p);
    std::vector<Var> disc_params = disc_.parameters();
    nn::Adam gen_opt(gen_params, config_.lr_generator, 0.5f);
    nn::Adam disc_opt(disc_params, config_.lr_discriminator, 0.5f);
    std::vector<Var> all_params = gen_params;
    all_params.insert(all_params.end(), disc_params.begin(), disc_params.end());

    auto discriminate = [&](const Var& seq, const Var& meta) {
        Var flat = nn::reshape(seq, {seq->value.dim(0), seq_floats});
        Var input = nn::concat_lastdim({flat, meta});
        return nn::reshape(disc_.forward(input), {seq->value.dim(0)});
    };

    auto real_batch = [&](std::size_t b) {
        nn::Tensor seq({b, config_.max_seq_len, sample_dim_});
        nn::Tensor meta({b, 2});
        auto sd = seq.data();
        auto md = meta.data();
        for (std::size_t row = 0; row < b; ++row) {
            const std::size_t pick = rng.uniform_index(usable.size());
            std::copy_n(real_seq.data() + pick * seq_floats, seq_floats,
                        sd.data() + row * seq_floats);
            std::copy_n(real_meta.data() + pick * 2, 2, md.data() + row * 2);
        }
        return std::pair{nn::make_var(seq), nn::make_var(meta)};
    };

    GanTrainResult result;
    double best_score = std::numeric_limits<double>::max();
    int evals_since_best = 0;
    // Snapshot of the best-scoring checkpoint (the paper's §5.5 heuristic
    // selects a checkpoint by fidelity rank; we keep the best and restore it
    // at the end — GAN quality is not monotone in the epoch count).
    std::vector<nn::Tensor> best_weights;
    auto snapshot = [&] {
        best_weights.clear();
        for (const auto& p : all_params) best_weights.push_back(p->value.clone());
    };
    auto restore = [&] {
        if (best_weights.empty()) return;
        for (std::size_t i = 0; i < all_params.size(); ++i) {
            auto dst = all_params[i]->value.data();
            auto src = best_weights[i].data();
            std::copy(src.begin(), src.end(), dst.begin());
        }
    };
    const std::size_t batches_per_epoch =
        std::max<std::size_t>(1, usable.size() / config_.batch_size);

    // ---- Phase 1: supervised (teacher-forced) generator pretraining ----
    // The LSTM is driven with the REAL previous-step samples and regressed
    // onto the real current-step samples; this seeds the sequential event
    // structure that adversarial training then sharpens (SeqGAN-style).
    // Supervised convergence wants standard Adam moments, unlike the
    // GAN-tuned beta1 = 0.5 used in phase 2.
    nn::Adam pretrain_opt(gen_params, 3e-3f, 0.9f);
    const std::size_t steps = config_.max_seq_len / config_.batch_generation;
    const std::size_t step_floats = config_.batch_generation * sample_dim_;
    for (int epoch = 0; epoch < config.pretrain_epochs; ++epoch) {
        for (std::size_t it = 0; it < batches_per_epoch; ++it) {
            const std::size_t b = config_.batch_size;
            // Assemble a teacher-forcing batch.
            nn::Tensor seq({b, config_.max_seq_len, sample_dim_});
            nn::Tensor meta({b, 2});
            {
                auto sd = seq.data();
                auto md = meta.data();
                for (std::size_t row = 0; row < b; ++row) {
                    const std::size_t pick = rng.uniform_index(usable.size());
                    std::copy_n(real_seq.data() + pick * seq_floats, seq_floats,
                                sd.data() + row * seq_floats);
                    std::copy_n(real_meta.data() + pick * 2, 2, md.data() + row * 2);
                }
            }
            Var meta_var = nn::make_var(meta);
            auto state = lstm_.zero_state(b);
            // Event types train with cross-entropy (calibrated categorical
            // probabilities — an MSE-regressed softmax is too diffuse to
            // sample from); interarrival and stop train with masked MSE.
            Var ce_sum;
            float ce_count = 0.0f;
            std::vector<Var> numeric_outputs;  // per step: [B, S*2] (ia, stop)
            numeric_outputs.reserve(steps);
            for (std::size_t s = 0; s < steps; ++s) {
                // Previous step's REAL samples as feedback (zeros for s = 0).
                nn::Tensor prev({b, step_floats});
                if (s > 0) {
                    auto dst = prev.data();
                    const auto src = seq.data();
                    for (std::size_t row = 0; row < b; ++row) {
                        std::copy_n(src.data() + row * seq_floats + (s - 1) * step_floats,
                                    step_floats, dst.data() + row * step_floats);
                    }
                }
                Var input = nn::concat_lastdim(
                    {nn::make_var(nn::Tensor::randn(rng, {b, config_.noise_dim}, 1.0f)), meta_var,
                     nn::make_var(prev)});
                auto [h, next] = lstm_.step(input, state);
                state = std::move(next);
                Var raw = step_head_.forward(h);
                std::vector<Var> numeric;
                for (std::size_t k = 0; k < config_.batch_generation; ++k) {
                    const std::size_t base = k * sample_dim_;
                    Var probs = nn::softmax_lastdim(nn::slice_lastdim(raw, base, num_events_));
                    // The real one-hot rows double as the CE mask: padded
                    // positions are all-zero and contribute nothing.
                    nn::Tensor onehot({b, num_events_});
                    {
                        auto dst = onehot.data();
                        const auto src = seq.data();
                        const std::size_t pos = s * config_.batch_generation + k;
                        for (std::size_t row = 0; row < b; ++row) {
                            for (std::size_t e = 0; e < num_events_; ++e) {
                                const float v = src[row * seq_floats + pos * sample_dim_ + e];
                                dst[row * num_events_ + e] = v;
                                ce_count += v;
                            }
                        }
                    }
                    Var term = nn::sum_all(nn::mul(nn::log_op(probs), nn::make_var(onehot)));
                    ce_sum = ce_sum ? nn::add(ce_sum, term) : term;
                    numeric.push_back(nn::sigmoid(nn::slice_lastdim(raw, base + num_events_, 2)));
                }
                numeric_outputs.push_back(nn::concat_lastdim(numeric));
            }
            // Numeric targets: the (ia, stop) columns of the real windows,
            // masked to positions that exist in the real stream — regressing
            // against padding zeros otherwise drags every interarrival to 0
            // once padding dominates the window.
            const std::size_t numeric_floats = config_.max_seq_len * 2;
            nn::Tensor numeric_target({b * numeric_floats});
            std::vector<float> mask(b * numeric_floats, 0.0f);
            {
                auto dst = numeric_target.data();
                const auto src = seq.data();
                for (std::size_t row = 0; row < b; ++row) {
                    for (std::size_t pos = 0; pos < config_.max_seq_len; ++pos) {
                        const float* sample = src.data() + row * seq_floats + pos * sample_dim_;
                        bool active = false;
                        for (std::size_t e = 0; e < num_events_; ++e) {
                            if (sample[e] != 0.0f) active = true;
                        }
                        dst[row * numeric_floats + pos * 2] = sample[num_events_];
                        dst[row * numeric_floats + pos * 2 + 1] = sample[num_events_ + 1];
                        if (active) {
                            mask[row * numeric_floats + pos * 2] = 1.0f;
                            mask[row * numeric_floats + pos * 2 + 1] = 1.0f;
                        }
                    }
                }
            }
            Var numeric_flat =
                nn::reshape(nn::concat_lastdim(numeric_outputs), {b * numeric_floats});
            // The numeric fields carry the sojourn-time fidelity; weight them
            // up against the (easier) event cross-entropy.
            Var loss = nn::scale(nn::mse_masked(numeric_flat, numeric_target, mask), 4.0f);
            if (ce_sum) {
                loss = nn::add(loss, nn::scale(ce_sum, -1.0f / std::max(ce_count, 1.0f)));
            }
            nn::zero_grad(gen_params);
            nn::backward(loss);
            nn::clip_grad_norm(gen_params, 5.0);
            pretrain_opt.step();
        }
    }

    // Fidelity proxy used for checkpoint selection (paper §5.5): flow-length
    // mean, event-type TV distance, and interarrival KS distance against the
    // training data.
    auto fidelity_score = [&](std::uint64_t eval_seed) -> double {
        util::Rng eval_rng(eval_seed);
        const trace::Dataset sample =
            generate(config.eval_streams, eval_rng, data.streams.front().device, "eval");
        if (sample.streams.empty()) return 1e6;
        const double real_len = util::summarize(data.flow_lengths()).mean;
        const double fake_len = util::summarize(sample.flow_lengths()).mean;
        const double len_term = std::abs(fake_len - real_len) / std::max(real_len, 1.0);
        const double tv = util::total_variation(sample.event_type_breakdown(),
                                                data.event_type_breakdown());
        const auto real_ia = data.all_interarrivals();
        const auto fake_ia = sample.all_interarrivals();
        const double ia_term = (real_ia.empty() || fake_ia.empty())
                                   ? 1.0
                                   : util::max_cdf_y_distance(real_ia, fake_ia);
        return len_term + tv + ia_term;
    };

    // The pretrained generator is itself a candidate checkpoint: adversarial
    // training does not monotonically improve it.
    if (config.pretrain_epochs > 0 && config.max_epochs > 0) {
        best_score = fidelity_score(config.seed + 6999);
        snapshot();
    }

    // ---- Phase 2: adversarial training ----

    for (int epoch = 0; epoch < config.max_epochs; ++epoch) {
        double dsum = 0.0;
        double gsum = 0.0;
        for (std::size_t it = 0; it < batches_per_epoch; ++it) {
            // ---- discriminator step(s) ----
            for (int k = 0; k < config_.disc_steps_per_gen_step; ++k) {
                auto [rseq, rmeta] = real_batch(config_.batch_size);
                const auto fake = generate_batch(config_.batch_size, rng);
                // Detach the generator graph: the D step must not update G.
                Var fseq = nn::make_var(fake.sequence->value);
                Var fmeta = nn::make_var(fake.metadata->value);
                Var d_real = discriminate(rseq, rmeta);
                Var d_fake = discriminate(fseq, fmeta);
                Var loss = nn::add(
                    bce_with_logits(d_real, std::vector<float>(config_.batch_size, 1.0f)),
                    bce_with_logits(d_fake, std::vector<float>(config_.batch_size, 0.0f)));
                nn::zero_grad(all_params);
                nn::backward(loss);
                nn::clip_grad_norm(disc_params, 5.0);
                disc_opt.step();
                dsum += loss->value[0];
            }
            // ---- generator step (non-saturating loss + moment matching) ----
            const auto fake = generate_batch(config_.batch_size, rng);
            Var d_fake = discriminate(fake.sequence, fake.metadata);
            Var gloss = bce_with_logits(d_fake, std::vector<float>(config_.batch_size, 1.0f));
            if (config_.moment_match_weight > 0.0f) {
                // Batch first and second moments of the generated features,
                // pulled toward the real data's column moments.
                const std::size_t b = config_.batch_size;
                Var averager = nn::make_var(
                    nn::Tensor::full({1, b}, 1.0f / static_cast<float>(b)));
                Var flat = nn::reshape(fake.sequence, {b, seq_floats});
                Var fake_seq_mean = nn::reshape(nn::matmul(averager, flat), {seq_floats});
                Var fake_seq_sq =
                    nn::reshape(nn::matmul(averager, nn::mul(flat, flat)), {seq_floats});
                Var fake_meta_mean = nn::reshape(nn::matmul(averager, fake.metadata), {2});
                Var fake_meta_sq = nn::reshape(
                    nn::matmul(averager, nn::mul(fake.metadata, fake.metadata)), {2});
                Var mm = nn::add(nn::mse_masked(fake_seq_mean, seq_mean_t, seq_mask),
                                 nn::mse_masked(fake_meta_mean, meta_mean_t, meta_mask));
                mm = nn::add(mm, nn::mse_masked(fake_seq_sq, seq_sq_t, seq_mask));
                mm = nn::add(mm, nn::mse_masked(fake_meta_sq, meta_sq_t, meta_mask));
                gloss = nn::add(gloss, nn::scale(mm, config_.moment_match_weight));
            }
            nn::zero_grad(all_params);
            nn::backward(gloss);
            nn::clip_grad_norm(gen_params, 5.0);
            gen_opt.step();
            gsum += gloss->value[0];
        }
        result.disc_loss.push_back(dsum / static_cast<double>(batches_per_epoch));
        result.gen_loss.push_back(gsum / static_cast<double>(batches_per_epoch));
        ++result.epochs_run;

        // ---- checkpoint evaluation heuristic (paper §5.5) ----
        if ((epoch + 1) % config.eval_every == 0) {
            const double score =
                fidelity_score(config.seed + 7000 + static_cast<std::uint64_t>(epoch));
            result.eval_score.push_back(score);
            if (config.verbose) {
                std::printf("gan epoch %d  d %.3f  g %.3f  eval %.3f\n", epoch,
                            result.disc_loss.back(), result.gen_loss.back(), score);
            }
            if (score < best_score - 1e-3) {
                best_score = score;
                evals_since_best = 0;
                snapshot();
            } else if (++evals_since_best >= config.patience) {
                break;
            }
        }
    }
    restore();
    result.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    return result;
}

trace::Dataset NetShareGenerator::generate(std::size_t n, util::Rng& rng,
                                           trace::DeviceType device,
                                           const std::string& ue_prefix) const {
    trace::Dataset ds;
    ds.generation = tokenizer_.generation();
    std::size_t produced = 0;
    while (produced < n) {
        const std::size_t b = std::min<std::size_t>(64, n - produced);
        const auto batch = generate_batch(b, rng);
        const auto seq = batch.hard_samples.data();
        for (std::size_t row = 0; row < b; ++row) {
            trace::Stream s;
            const std::string id = trace::ue_id(ue_prefix, produced);
            s.ue_id = id;
            s.device = device;
            double t = 0.0;
            for (std::size_t k = 0; k < config_.max_seq_len; ++k) {
                // The hard samples already carry the sampled event one-hot,
                // the ia value, and the sampled stop bit — the same concrete
                // sequence the generator's feedback loop conditioned on.
                const float* rowp = seq.data() + (row * config_.max_seq_len + k) * sample_dim_;
                std::size_t ev = 0;
                for (std::size_t e = 1; e < num_events_; ++e) {
                    if (rowp[e] > rowp[ev]) ev = e;
                }
                if (k > 0) {
                    t += tokenizer_.unscale_interarrival(rowp[num_events_]);
                }
                s.events.push_back({t, static_cast<cellular::EventId>(ev)});
                if (rowp[num_events_ + 1] > 0.5f) break;  // sampled stop bit
            }
            ++produced;
            if (s.length() >= 2) ds.streams.push_back(std::move(s));
        }
    }
    return ds;
}

}  // namespace cpt::gan
