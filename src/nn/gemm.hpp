// Cache-blocked, register-tiled GEMM kernels for the nn substrate,
// dispatched at runtime across three SIMD tiers (scalar, SSE2, AVX2+FMA —
// see util/cpu.hpp), plus the naive reference kernels they are tested
// against. Every kernel runs on its caller's thread: parallelism lives one
// level up, in the trainer's data-parallel shards, the sampler lanes and the
// serve engines. nn/tn matmuls with m == 1 route through dedicated GEMV
// kernels instead of the blocked drivers. The inference fast path's NT
// products (decode rows) go through gemm_nt_decode.
//
// All kernels ACCUMULATE into C (callers zero it or rely on fresh tensors)
// and share one accumulation contract: the floating-point operations
// producing a C element are a pure function of (element index, shape, active
// tier). Register tiling changes which elements are computed together, but
// never the per-element operation sequence.
// Tier-relative numerics:
//   * scalar / sse2: a single ascending-k accumulator per element, added to
//     C exactly once — BIT-IDENTICAL to the reference kernels for every
//     shape (pinned by tests/nn_gemm_test.cpp).
//   * avx2: FMA and fixed-tree reductions — tolerance vs the reference
//     (tests/nn_simd_parity_test.cpp).
//
// The K dimension is deliberately not split (no Kc accumulation blocking):
// at this project's sizes (d_model <= 128, MLP <= 1024, vocab < 16) a full-K
// micro-panel fits in L1, and keeping K whole is what preserves the
// per-element order above.
#pragma once

#include <cstddef>

namespace cpt::nn {

// Blocked training kernels.

// C[M,N] += A[M,K] * B[K,N]
void gemm_nn(const float* a, const float* b, float* c, std::size_t m_dim, std::size_t k_dim,
             std::size_t n_dim);

// C[M,N] += A[M,K] * B^T where B is stored [N,K]
void gemm_nt(const float* a, const float* b, float* c, std::size_t m_dim, std::size_t k_dim,
             std::size_t n_dim);

// The inference fast path's NT product (Linear/Mlp::forward_rows: decoder
// projections and the model heads), same semantics as gemm_nt. Row r of C
// is additionally bit-identical to the 1-row product of A's row r for EVERY
// m: a decode row's bits never depend on how many other rows share the
// batch. On scalar/sse2 this is gemm_nt (the
// reference chain); on avx2 it runs pack-free register tiles whose
// per-element chain is one 8-wide FMA chain in ascending k, the fixed hsum8
// tree, then a scalar fma tail. (avx2 gemm_nt instead packs B once per call
// and runs one scalar FMA chain per element: faster at training shapes,
// slower for a handful of rows, and different bits.)
void gemm_nt_decode(const float* a, const float* b, float* c, std::size_t m_dim, std::size_t k_dim,
                    std::size_t n_dim);

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
