// The GEMM kernels of the nn substrate, dispatched at runtime across two
// SIMD tiers (scalar, AVX2+FMA — see util/cpu.hpp), plus the naive reference
// kernels they are tested against. Every kernel runs on its caller's thread:
// parallelism lives one level up, in the trainer's data-parallel shards, the
// sampler lanes and the serve engines.
//
// One engine serves every product. It multiplies A by a k-major panel of B:
// gemm_nn reads its [K, N] B in place, gemm_tn reads its [K, M] A through a
// (row, k) stride pair, gemm_nt packs Bᵀ per call, and gemm_nt_decode reads a
// DecodePanel packed once per decoder. avx2 runs register tiles over the
// panel (src/nn/gemm_tiles_inl.hpp), 16 lanes wide when the host has
// AVX-512F (util::decode_lanes), else 8; scalar runs one row at a time.
//
// All kernels ACCUMULATE into C (callers zero it or rely on fresh tensors)
// and share one accumulation contract: every C element is a single chain,
// started from zero and run over ascending k, then added to C exactly once.
// The floating-point operations producing an element are therefore a pure
// function of (element index, shape, active tier) — never of the layout, the
// tile, the width or the rows around it.
//   * scalar: each step is a multiply then an add — BIT-IDENTICAL to the
//     reference kernels for every shape (pinned by tests/nn_gemm_test.cpp).
//   * avx2: each step is one FMA — tolerance vs the reference
//     (tests/nn_simd_parity_test.cpp), but within the tier gemm_nn, gemm_nt,
//     gemm_tn and gemm_nt_decode agree bit for bit, at either width.
//
// The K dimension is deliberately not split (no Kc accumulation blocking):
// at this project's sizes (d_model <= 128, MLP <= 1024, vocab < 16) a full-K
// panel strip fits in L1, and keeping K whole is what preserves the
// per-element order above.
#pragma once

#include <cstddef>
#include <memory>

namespace cpt::nn {

// C[M,N] += A[M,K] * B[K,N]
void gemm_nn(const float* a, const float* b, float* c, std::size_t m_dim, std::size_t k_dim,
             std::size_t n_dim);

// C[M,N] += A[M,K] * B^T where B is stored [N,K]
void gemm_nt(const float* a, const float* b, float* c, std::size_t m_dim, std::size_t k_dim,
             std::size_t n_dim);

// An NT weight B [N, K] packed for gemm_nt_decode: k-major, panel[k * stride
// + j] = B[j, k], the same [k, n] layout gemm_nt packs per call, built once
// per decoder instead. The stride rounds N up to whole 16-float vectors (the
// columns past N are zero) and then adds 16 more, so it is never a multiple
// of a large power of two: at a 1 KiB stride consecutive k rows alias to a
// few L1 sets and a column strip walk thrashes (the same stride as gemm_nt's
// pack). The buffer is 64-byte aligned, so every vector load is cache-line
// aligned. Packing copies the weight: the panel keeps the values B had when
// it was built.
class DecodePanel {
public:
    DecodePanel() = default;
    DecodePanel(const float* b, std::size_t n_dim, std::size_t k_dim);

    std::size_t k() const { return k_; }
    std::size_t n() const { return n_; }
    std::size_t stride() const { return stride_; }
    const float* data() const { return data_.get(); }

private:
    struct AlignedDelete {
        void operator()(float* p) const;
    };
    std::size_t k_ = 0;
    std::size_t n_ = 0;
    std::size_t stride_ = 0;
    std::unique_ptr<float[], AlignedDelete> data_;
};

// The inference fast path's NT product (PackedLinear/PackedMlp::forward_rows:
// decoder projections and the model heads): C[M,N] += A[M,K] * B^T over B's
// packed panel: the engine of gemm_nt without the per-call pack, so the bits
// equal gemm_nt's on every tier (gemm_nt_ref's on scalar) and row r of C
// never depends on how many other rows share the call.
void gemm_nt_decode(const float* a, const DecodePanel& b, float* c, std::size_t m_dim);

// C[M,N] += A^T * B where A is stored [K,M], B is [K,N]
void gemm_tn(const float* a, const float* b, float* c, std::size_t m_dim, std::size_t k_dim,
             std::size_t n_dim);

// Naive reference kernels (triple loop, ascending-k dot products). Retained
// for the bit-exactness tests and the perf baseline in bench_micro_nn.
void gemm_nn_ref(const float* a, const float* b, float* c, std::size_t m_dim, std::size_t k_dim,
                 std::size_t n_dim);
void gemm_nt_ref(const float* a, const float* b, float* c, std::size_t m_dim, std::size_t k_dim,
                 std::size_t n_dim);
void gemm_tn_ref(const float* a, const float* b, float* c, std::size_t m_dim, std::size_t k_dim,
                 std::size_t n_dim);

}  // namespace cpt::nn
