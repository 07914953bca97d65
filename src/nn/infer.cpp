#include "infer.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "kernels.hpp"
#include "util/check.hpp"

namespace cpt::nn {

TransformerDecoder::TransformerDecoder(const Transformer& model, std::size_t batch)
    : TransformerDecoder(model, batch, DecodeOptions{}) {}

TransformerDecoder::TransformerDecoder(const Transformer& model, std::size_t batch,
                                       const DecodeOptions& opts)
    : model_(&model), quant_(opts.quant), kv_fp16_(opts.kv_fp16), capacity_(batch),
      batch_(batch) {
    const auto& cfg = model.config();
    CPT_CHECK_GT(batch, std::size_t{0}, " TransformerDecoder: batch must be > 0");
    if (quant_ != nullptr) {
        CPT_CHECK_EQ(quant_->blocks.size(), cfg.blocks,
                     " TransformerDecoder: quantized weights do not match the model");
        CPT_CHECK_EQ(quant_->input_proj.in, cfg.d_token,
                     " TransformerDecoder: quantized weights do not match the model");
    }
    caches_.resize(cfg.blocks);
    len_.assign(batch, 0);
    phys_.resize(batch);
    for (std::size_t r = 0; r < batch; ++r) phys_[r] = r;
    free_.reserve(batch);
    const std::size_t dh = cfg.d_model / cfg.heads;
    for (auto& c : caches_) {
        if (kv_fp16_) {
            c.kh.assign(batch * cfg.heads * cfg.max_seq_len * dh, 0);
            c.vh.assign(batch * cfg.heads * cfg.max_seq_len * dh, 0);
        } else {
            c.k = Tensor({batch, cfg.heads, cfg.max_seq_len, dh});
            c.v = Tensor({batch, cfg.heads, cfg.max_seq_len, dh});
        }
    }
    std::size_t mlp_hidden = 0;
    for (const auto& block : model.blocks()) {
        mlp_hidden = std::max(mlp_hidden, block->mlp().fc1().out_features());
    }
    hstate_full_ = Tensor({batch, cfg.d_model});
    q_full_ = Tensor({batch, cfg.d_model});
    kv_full_ = Tensor({batch, cfg.d_model});
    attn_full_ = Tensor({batch, cfg.d_model});
    scratch_full_ = Tensor({batch, cfg.d_model});
    mlp_hidden_full_ = Tensor({batch, mlp_hidden});
    bind_rows(batch_);
    scores_.resize(cfg.max_seq_len);
}

void TransformerDecoder::bind_rows(std::size_t rows) {
    if (bound_rows_ == rows && hstate_.numel() > 0) return;
    hstate_ = hstate_full_.first_rows(rows);
    q_ = q_full_.first_rows(rows);
    kv_ = kv_full_.first_rows(rows);
    attn_out_ = attn_full_.first_rows(rows);
    scratch_ = scratch_full_.first_rows(rows);
    mlp_hidden_ = mlp_hidden_full_.first_rows(rows);
    bound_rows_ = rows;
}

std::size_t TransformerDecoder::length() const {
    std::size_t longest = 0;
    for (std::size_t r = 0; r < batch_; ++r) longest = std::max(longest, len_[r]);
    return longest;
}

const Tensor& TransformerDecoder::step(const Tensor& x) {
    const auto& cfg = model_->config();
    CPT_CHECK(x.rank() == 2 && x.dim(0) == batch_ && x.dim(1) == cfg.d_token,
              "TransformerDecoder::step: expected [", batch_, ", ", cfg.d_token, "], got ",
              shape_to_string(x.shape()));
    const std::size_t m = batch_;
    CPT_CHECK_GT(m, std::size_t{0}, " TransformerDecoder::step: no live rows");
    for (std::size_t r = 0; r < m; ++r) {
        CPT_CHECK_LT(len_[r], cfg.max_seq_len, " TransformerDecoder::step: context full");
    }
    const std::size_t d = cfg.d_model;
    const std::size_t h = cfg.heads;
    const std::size_t dh = d / h;
    const std::size_t max_t = cfg.max_seq_len;
    bind_rows(m);
    float* ph = hstate_.data().data();
    float* pscratch = scratch_.data().data();

    // Input projection + positional embedding. The embedding is indexed by
    // the row-local position len(r), so a row admitted mid-decode sees
    // exactly the embeddings a fresh sequential decode would.
    if (quant_ != nullptr) {
        quant_->input_proj.forward_rows(x.data().data(), ph, m, qscratch_);
    } else {
        model_->input_proj().forward_rows(x.data().data(), ph, m);
    }
    const float* pos = model_->positions()->value.data().data();
    for (std::size_t r = 0; r < m; ++r) kernels::add_bias_row(ph + r * d, pos + len_[r] * d, d);

    const auto layer_norm = [&](const LayerNorm& ln, const float* in, float* out) {
        const float* gain = ln.gain()->value.data().data();
        const float* bias = ln.bias()->value.data().data();
        for (std::size_t i = 0; i < m; ++i) {
            kernels::layer_norm_row(in + i * d, out + i * d, gain, bias, d, 1e-5f, nullptr);
        }
    };

    for (std::size_t bi = 0; bi < caches_.size(); ++bi) {
        const auto& block = *model_->blocks()[bi];
        const TransformerQuant::Block* qb = quant_ != nullptr ? &quant_->blocks[bi] : nullptr;
        BlockCache& cache = caches_[bi];
        // Projection dispatcher: int8 weights when quantized, fp32 otherwise.
        const auto proj = [&](const Linear& fp, const QuantLinear* q, const float* in,
                              float* out) {
            if (q != nullptr) {
                q->forward_rows(in, out, m, qscratch_);
            } else {
                fp.forward_rows(in, out, m);
            }
        };
        // Scatter the fresh K or V rows into the cache at each row's
        // local position len(r), converting to fp16 when the cache is
        // half-precision (encoding is round-to-nearest-even — the same bits
        // on every tier).
        const auto append_kv = [&](const float* src_rows, float* dst32, std::uint16_t* dst16) {
            for (std::size_t r = 0; r < m; ++r) {
                for (std::size_t head = 0; head < h; ++head) {
                    const std::size_t off = ((phys_[r] * h + head) * max_t + len_[r]) * dh;
                    const float* src = src_rows + r * d + head * dh;
                    if (dst16 != nullptr) {
                        kernels::fp16_encode(src, dst16 + off, dh);
                    } else {
                        std::copy_n(src, dh, dst32 + off);
                    }
                }
            }
        };

        // ---- attention branch: ln1 -> qkv -> cached causal attention -> wo
        layer_norm(block.ln1(), ph, pscratch);
        proj(block.attn().wq(), qb != nullptr ? &qb->wq : nullptr, pscratch, q_.data().data());
        // New K/V rows go straight into the cache before attention runs, so
        // each row's token attends to itself.
        proj(block.attn().wk(), qb != nullptr ? &qb->wk : nullptr, pscratch, kv_.data().data());
        append_kv(kv_.data().data(), kv_fp16_ ? nullptr : cache.k.data().data(),
                  kv_fp16_ ? cache.kh.data() : nullptr);
        proj(block.attn().wv(), qb != nullptr ? &qb->wv : nullptr, pscratch, kv_.data().data());
        append_kv(kv_.data().data(), kv_fp16_ ? nullptr : cache.v.data().data(),
                  kv_fp16_ ? cache.vh.data() : nullptr);
        // Per-row, per-head attention over the row's own causal window
        // [0, len(r)]. K/V live at row-local positions, so the math —
        // dot order, softmax length, axpy order — is bit-identical to a
        // fresh sequential decode of the same stream regardless of when the
        // row was admitted or how the other rows advance. The one score row
        // lives in the arena, so the hot loop stays allocation-free.
        {
            const float scale = 1.0f / std::sqrt(static_cast<float>(dh));
            const float* pq = q_.data().data();
            const float* ck = kv_fp16_ ? nullptr : cache.k.data().data();
            const float* cv = kv_fp16_ ? nullptr : cache.v.data().data();
            const std::uint16_t* ckh = kv_fp16_ ? cache.kh.data() : nullptr;
            const std::uint16_t* cvh = kv_fp16_ ? cache.vh.data() : nullptr;
            float* scores = scores_.data();
            float* ctx = pscratch;  // reuse as context output
            for (std::size_t r = 0; r < m; ++r) {
                const std::size_t n = len_[r] + 1;  // keys [0, len(r)]
                for (std::size_t head = 0; head < h; ++head) {
                    const std::size_t win = (phys_[r] * h + head) * max_t * dh;
                    const float* qrow = pq + r * d + head * dh;
                    // The batched kernels are defined as these per-key
                    // dot/axpy loops (kernels.hpp): one dispatch per
                    // (row, head) instead of per key, same bits.
                    if (kv_fp16_) {
                        kernels::attn_scores_f16(qrow, ckh + win, scores, n, dh, scale);
                    } else {
                        kernels::attn_scores(qrow, ck + win, scores, n, dh, scale);
                    }
                    kernels::softmax_row(scores, scores, n, n);
                    float* crow = ctx + r * d + head * dh;
                    std::fill_n(crow, dh, 0.0f);
                    if (kv_fp16_) {
                        kernels::attn_mix_f16(scores, cvh + win, crow, n, dh);
                    } else {
                        kernels::attn_mix(scores, cv + win, crow, n, dh);
                    }
                }
            }
        }
        proj(block.attn().wo(), qb != nullptr ? &qb->wo : nullptr, pscratch,
             attn_out_.data().data());
        hstate_.add_(attn_out_);

        // ---- MLP branch: ln2 -> fc1 -> fused bias+gelu -> fc2
        layer_norm(block.ln2(), ph, pscratch);
        // attn_out_ doubles as the MLP output buffer.
        if (qb != nullptr) {
            qb->mlp.forward_rows(pscratch, mlp_hidden_.data().data(), attn_out_.data().data(), m,
                                 qscratch_);
        } else {
            block.mlp().forward_rows(pscratch, mlp_hidden_.data().data(), attn_out_.data().data(),
                                     m);
        }
        hstate_.add_(attn_out_);
    }

    layer_norm(model_->final_ln(), ph, ph);
    for (std::size_t r = 0; r < m; ++r) ++len_[r];
    return hstate_;
}

std::size_t TransformerDecoder::kv_bytes() const {
    std::size_t total = 0;
    for (const auto& c : caches_) {
        total += c.k.numel() * sizeof(float) + c.v.numel() * sizeof(float);
        total += (c.kh.size() + c.vh.size()) * sizeof(std::uint16_t);
    }
    return total;
}

void TransformerDecoder::compact(const std::vector<std::size_t>& keep_rows) {
    for (std::size_t i = 1; i < keep_rows.size(); ++i) {
        CPT_CHECK_LT(keep_rows[i - 1], keep_rows[i],
                     " TransformerDecoder::compact: rows must be ascending");
    }
    if (!keep_rows.empty()) {
        CPT_CHECK_LT(keep_rows.back(), batch_, " TransformerDecoder::compact: row out of range");
    }
    const std::size_t new_batch = keep_rows.size();
    // O(batch): only the logical->physical map and the per-row metadata move;
    // the KV rows themselves stay where they are (dropped physical rows go on
    // the free list for admit() to hand out). A serving scheduler compacts at
    // nearly every step boundary, so moving KV data here — O(batch * maxT * d)
    // per call — would tax continuous batching far more than the occasional
    // end-of-round compact a drain scheduler performs.
    std::size_t next_keep = 0;
    for (std::size_t i = 0; i < batch_; ++i) {
        if (next_keep < new_batch && keep_rows[next_keep] == i) {
            len_[next_keep] = len_[i];
            phys_[next_keep] = phys_[i];
            ++next_keep;
        } else {
            free_.push_back(phys_[i]);
        }
    }
    batch_ = new_batch;
}

std::size_t TransformerDecoder::admit(std::size_t count) {
    CPT_CHECK_LE(batch_ + count, capacity_,
                 " TransformerDecoder::admit: live rows would exceed capacity");
    const std::size_t first = batch_;
    for (std::size_t i = 0; i < count; ++i) {
        len_[batch_ + i] = 0;
        // compact() returned enough physical rows to the free list: live rows
        // plus freed rows always cover the capacity.
        phys_[batch_ + i] = free_.back();
        free_.pop_back();
    }
    batch_ += count;
    return first;
}

void TransformerDecoder::reset() {
    batch_ = 0;
    std::fill(len_.begin(), len_.end(), 0);
    // Descending so admit() hands out physical rows 0, 1, 2, ... again.
    free_.clear();
    for (std::size_t r = capacity_; r > 0; --r) free_.push_back(r - 1);
}

}  // namespace cpt::nn
