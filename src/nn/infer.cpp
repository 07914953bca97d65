#include "infer.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "kernels.hpp"
#include "util/check.hpp"

namespace cpt::nn {

TransformerDecoder::TransformerDecoder(const Transformer& model, std::size_t batch)
    : model_(&model), capacity_(batch), batch_(batch) {
    const auto& cfg = model.config();
    CPT_CHECK_GT(batch, std::size_t{0}, " TransformerDecoder: batch must be > 0");
    input_proj_ = PackedLinear::from(model.input_proj());
    blocks_.reserve(cfg.blocks);
    for (const auto& block : model.blocks()) {
        const auto& attn = block->attn();
        blocks_.push_back({PackedLinear::from(attn.wq()), PackedLinear::from(attn.wk()),
                           PackedLinear::from(attn.wv()), PackedLinear::from(attn.wo()),
                           PackedMlp::from(block->mlp())});
    }
    caches_.resize(cfg.blocks);
    len_.assign(batch, 0);
    phys_.resize(batch);
    for (std::size_t r = 0; r < batch; ++r) phys_[r] = r;
    free_.reserve(batch);
    const std::size_t dh = cfg.d_model / cfg.heads;
    for (auto& c : caches_) {
        c.k = Tensor({batch, cfg.heads, cfg.max_seq_len, dh});
        c.v = Tensor({batch, cfg.heads, cfg.max_seq_len, dh});
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
    input_proj_.forward_rows(x.data().data(), ph, m);
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
        const PackedBlock& pb = blocks_[bi];
        BlockCache& cache = caches_[bi];
        // Scatter the fresh K or V rows into the cache at each row's
        // local position len(r).
        const auto append_kv = [&](const float* src_rows, float* dst) {
            for (std::size_t r = 0; r < m; ++r) {
                for (std::size_t head = 0; head < h; ++head) {
                    const std::size_t off = ((phys_[r] * h + head) * max_t + len_[r]) * dh;
                    std::copy_n(src_rows + r * d + head * dh, dh, dst + off);
                }
            }
        };

        // ---- attention branch: ln1 -> qkv -> cached causal attention -> wo
        layer_norm(block.ln1(), ph, pscratch);
        pb.wq.forward_rows(pscratch, q_.data().data(), m);
        // New K/V rows go straight into the cache before attention runs, so
        // each row's token attends to itself.
        pb.wk.forward_rows(pscratch, kv_.data().data(), m);
        append_kv(kv_.data().data(), cache.k.data().data());
        pb.wv.forward_rows(pscratch, kv_.data().data(), m);
        append_kv(kv_.data().data(), cache.v.data().data());
        // Per-row, per-head attention over the row's own causal window
        // [0, len(r)]: one kernel call per (row, head) runs scores, softmax
        // and the value mix in kernels::attention_head's order, the same
        // bits on every tier. K/V live at row-local positions, so the result
        // equals a fresh sequential decode of the same stream regardless of
        // when the row was admitted or how the other rows advance. The one
        // score row lives in the arena, so the hot loop stays
        // allocation-free.
        {
            const float scale = 1.0f / std::sqrt(static_cast<float>(dh));
            const float* pq = q_.data().data();
            float* scores = scores_.data();
            float* ctx = pscratch;  // reuse as context output
            for (std::size_t r = 0; r < m; ++r) {
                const std::size_t n = len_[r] + 1;  // keys [0, len(r)]
                for (std::size_t head = 0; head < h; ++head) {
                    const std::size_t win = (phys_[r] * h + head) * max_t * dh;
                    const float* qrow = pq + r * d + head * dh;
                    float* crow = ctx + r * d + head * dh;
                    kernels::attention_head(qrow, cache.k.data().data() + win,
                                            cache.v.data().data() + win, scores, crow, n, dh,
                                            scale);
                }
            }
        }
        pb.wo.forward_rows(pscratch, attn_out_.data().data(), m);
        hstate_.add_(attn_out_);

        // ---- MLP branch: ln2 -> fc1 -> fused bias+gelu -> fc2
        layer_norm(block.ln2(), ph, pscratch);
        // attn_out_ doubles as the MLP output buffer.
        pb.mlp.forward_rows(pscratch, mlp_hidden_.data().data(), attn_out_.data().data(), m);
        hstate_.add_(attn_out_);
    }

    layer_norm(model_->final_ln(), ph, ph);
    for (std::size_t r = 0; r < m; ++r) ++len_[r];
    return hstate_;
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
