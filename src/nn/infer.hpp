// Inference-only incremental decoding for the Transformer backbone with a
// key/value cache. Autoregressive sampling with the autograd forward costs
// O(T^2) matmuls per generated token (the full prefix is re-encoded each
// step); this decoder reuses cached per-block K/V so each step costs O(T)
// attention plus O(1) projections — an order of magnitude faster on CPU.
//
// The decoder holds plain tensors (no autograd graph) and owns a scratch
// arena allocated once at construction, so steady-state decoding performs
// zero tensor allocations per step (the decode hot path of
// Sampler::SlotBatch, which generate_batch and the serve engines drive).
// compact() drops rows by permuting a logical->physical row map over the KV
// cache — O(batch), no data movement.
// Numerical equivalence with Transformer::forward() is pinned by
// tests; all kernels dispatch on the active SIMD tier (util/cpu.hpp).
//
// Weight snapshot: the decoder packs every projection (input proj, q/k/v/o,
// MLP) into gemm_nt_decode panels when it is built, so the projections
// decode the weights the model had at that moment; training the model
// afterwards changes only decoders built later. LayerNorm parameters and
// the positional table are read from the model at every step.
//
// Threading: a decoder runs entirely on its caller's thread. Nothing under
// step() opens a thread-pool region, so a step never waits on, or
// contends for, the process-wide pool. Parallel decode lives one level up: the
// sampler runs one SlotBatch per pool lane and cpt-serve one thread per
// decode lane of a slice, each with its own decoder. The output therefore
// cannot depend on CPT_THREADS.
//
// Continuous batching: admit() re-activates freed rows mid-decode. Each row
// carries its own context length and its K/V is stored at row-local
// positions — attention for row r covers cache positions [0, len(r)] and the
// positional embedding is indexed by len(r) — so a row's arithmetic is
// bit-identical to the same stream decoded from position 0 in a fresh
// decoder, regardless of when it was admitted or how other rows advance.
// That invariance is what lets a serving scheduler refill slots that
// compact() frees without perturbing the streams already in flight (pinned
// by tests/serve_test.cpp).
#pragma once

#include <memory>
#include <vector>

#include "modules.hpp"

namespace cpt::nn {

class TransformerDecoder {
public:
    // Binds to a trained model; `batch` rows decode in lockstep. The arena
    // and KV cache are sized for `batch` (the capacity); compact() can only
    // shrink below it.
    TransformerDecoder(const Transformer& model, std::size_t batch);

    // Feeds one token per row (x: [B, d_token]) and returns the final-layer
    // hidden state for that position ([B, d_model]). Row r's token is
    // processed at its context position len(r) and attends to cache
    // positions [0, len(r)]; afterwards len(r) grows by one. The returned
    // tensor is a view into the decoder's arena: it is overwritten by the
    // next step() (clone it to keep it). Throws when any row's context is
    // full (row_length() == max_seq_len).
    const Tensor& step(const Tensor& x);

    // Longest live row context (tokens consumed); 0 when no rows are live.
    // Rows admitted mid-decode have shorter contexts, so per-row
    // row_length() is the precise notion.
    std::size_t length() const;
    // Tokens consumed by row r (its local context length).
    std::size_t row_length(std::size_t r) const { return len_[r]; }
    std::size_t batch() const { return batch_; }
    std::size_t capacity() const { return capacity_; }

    // Keeps only the given rows (ascending, unique); used to drop finished
    // streams mid-generation. O(batch): rows are indirected through a
    // logical->physical map, so no KV data moves — dropped physical rows are
    // recycled to admit(). No reallocation.
    void compact(const std::vector<std::size_t>& keep_rows);

    // Activates `count` additional rows (append after the live ones) with an
    // empty context: their K/V is stored at row-local positions starting at
    // 0 and their positional embedding restarts at 0, so each admitted row
    // has the full max_seq_len of context regardless of how far the other
    // rows have decoded. Returns the index of the first new row. Requires
    // batch() + count <= capacity(). The stale K/V those rows inherit is
    // never read.
    std::size_t admit(std::size_t count);

    // Forgets all rows, so the decoder can be reused from a clean slate.
    // O(capacity): only the row metadata and the physical-row free list are
    // rebuilt (descending, so admit() hands out rows 0, 1, 2, ... again); no
    // cache buffer is touched.
    void reset();

private:
    struct BlockCache {
        // K/V laid out [capacity, H, maxT, Dh] (row-major, preallocated);
        // only the first batch_ rows are live. Left uninitialised: step()
        // writes each position before any attention reads it, so untouched
        // rows cost no resident memory and construction no memset.
        std::unique_ptr<float[]> k;
        std::unique_ptr<float[]> v;
    };

    // The projections of one block, packed at construction.
    struct PackedBlock {
        PackedLinear wq;
        PackedLinear wk;
        PackedLinear wv;
        PackedLinear wo;
        PackedMlp mlp;
    };

    // Re-points the arena views at the first `rows` rows of the full
    // buffers (no-op when already bound to that count).
    void bind_rows(std::size_t rows);

    const Transformer* model_;
    // Projection snapshots.
    PackedLinear input_proj_;
    std::vector<PackedBlock> blocks_;
    std::size_t capacity_ = 0;
    std::size_t batch_ = 0;
    // Per-row context length ([capacity_]; first batch_ entries live). K/V
    // for row r occupies cache positions [0, len_[r]) of its physical row.
    std::vector<std::size_t> len_;
    // Logical row r's K/V lives at cache row phys_[r]; free_ holds the
    // physical rows not referenced by any live logical row. compact()
    // permutes this map instead of moving KV data, so a continuous-batching
    // scheduler can compact at every step boundary for O(batch) rather than
    // O(batch * maxT * d_model).
    std::vector<std::size_t> phys_;
    std::vector<std::size_t> free_;
    std::vector<BlockCache> caches_;

    // Scratch arena, allocated once for `capacity_` rows...
    Tensor hstate_full_;
    Tensor q_full_;
    Tensor kv_full_;
    Tensor attn_full_;
    Tensor scratch_full_;
    Tensor mlp_hidden_full_;
    // ...and the first_rows(batch_) views the current step's kernels run on,
    // rebound only when the live row count changes.
    std::size_t bound_rows_ = 0;
    Tensor hstate_;
    Tensor q_;
    Tensor kv_;
    Tensor attn_out_;
    Tensor scratch_;
    Tensor mlp_hidden_;
    // One attention score row ([max_seq_len]).
    std::vector<float> scores_;
};

}  // namespace cpt::nn
