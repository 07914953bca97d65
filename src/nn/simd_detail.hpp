// Internal declarations of the AVX2+FMA kernel tier. The definitions live in
// gemm_avx2.cpp / kernels_avx2.cpp / attention_avx2.cpp, the translation
// units built with -mavx2 -mfma (plus gemm_avx512.cpp, see
// gemm_panel_avx512); when the compiler lacks those flags the
// definitions degrade to CPT_CHECK failures. Callers must only reach these
// through the tier dispatchers in gemm.cpp / kernels.cpp, which guarantee the
// active tier is kAvx2 (and therefore that the host CPU supports the
// instructions).
//
// Determinism contract shared by every function here: the floating-point
// operations producing one output element depend only on (element index,
// operand shape) — never on tile position. Every function runs on its
// caller's thread. Scalar edge paths use std::fma so they round exactly like
// the vector FMA lanes.
#pragma once

#include <cstddef>

namespace cpt::nn::detail {

// The GEMM engine (gemm.hpp: gemm_nn, gemm_nt, gemm_tn, gemm_nt_decode):
// C[M,N] += A * B with A element (r, k) at a[r * rs + k * ks] and B a
// k-major panel, element (k, j) at panel[k * ld + j], read only up to column
// n_dim. One register tile written for both widths (gemm_tiles_inl.hpp): 8
// lanes here, 16 lanes in gemm_avx512.cpp, which is built with -mavx512f and
// reached only when util::decode_lanes reports 16. Both widths run the same
// per-element FMA chain, so they give the same bits.
void gemm_panel_avx2(const float* a, std::size_t rs, std::size_t ks, const float* panel,
                     std::size_t ld, float* c, std::size_t m_dim, std::size_t k_dim,
                     std::size_t n_dim);
void gemm_panel_avx512(const float* a, std::size_t rs, std::size_t ks, const float* panel,
                       std::size_t ld, float* c, std::size_t m_dim, std::size_t k_dim,
                       std::size_t n_dim);

// Softmax and decode attention in the tier-identical order of kernels.hpp
// (attention_avx2.cpp, built with -ffp-contract=off). softmax_row_avx2
// writes the first `valid` entries only; kernels::softmax_row zeroes the rest.
void softmax_row_avx2(const float* in, float* out, std::size_t valid);
void attention_head_avx2(const float* q, const float* krows, const float* vrows, float* scores,
                         float* ctx, std::size_t n, std::size_t dh, float scale);

// Fused elementwise helpers used by kernels.cpp's per-row dispatch.
// One LayerNorm row: out = (in - mean) * inv * gain + bias; writes the
// mean/inv pair when stats2 != nullptr (autograd backward cache).
void layer_norm_row_avx2(const float* in, float* out, const float* gain, const float* bias,
                         std::size_t d, float eps, float* stats2);
void add_bias_row_avx2(float* row, const float* bias, std::size_t d);
// One fused bias+GELU row, row[j] = gelu(row[j] + bias[j]), evaluated as
// x * sigmoid(2u) with a vectorised exp (within 1e-6 of gelu_scalar).
void bias_gelu_row_avx2(float* row, const float* bias, std::size_t d);
// One bias+GELU backward row (semantics in kernels.hpp; dx may be null).
void bias_gelu_backward_row_avx2(const float* x, const float* bias, const float* g, float* dx,
                                 float* scratch, std::size_t d);

// Backward-pass helpers used by the training kernels in kernels.cpp.
// One softmax backward row: dx += y * (g - dot(g, y)).
void softmax_backward_row_avx2(const float* y, const float* g, float* dx, std::size_t n);
// One LayerNorm backward row (the dx formula; see kernels.hpp).
void layer_norm_backward_row_avx2(const float* x, const float* gain, const float* g, float mean,
                                  float inv, float* dx, std::size_t d);
// sum(x[i]^2) in double precision: four double lanes, fixed combine order.
double sqnorm_avx2(const float* x, std::size_t n);
// Fused Adam update over one segment (semantics in kernels.hpp).
void adam_update_avx2(float* w, const float* g, float* m, float* v, std::size_t n, float lr,
                      float beta1, float beta2, float eps, float weight_decay, float bc1,
                      float bc2, float gscale);

}  // namespace cpt::nn::detail
