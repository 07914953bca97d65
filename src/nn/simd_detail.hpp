// Internal declarations of the AVX2+FMA kernel tier. The definitions live in
// gemm_avx2.cpp / kernels_avx2.cpp, the only translation units built with
// -mavx2 -mfma; when the compiler lacks those flags the definitions degrade to
// CPT_CHECK failures. Callers must only reach these through the tier
// dispatchers in gemm.cpp / kernels.cpp, which guarantee the active tier is
// kAvx2 (and therefore that the host CPU supports the instructions).
//
// Determinism contract shared by every function here: the floating-point
// operations producing one output element depend only on (element index,
// operand shape) — never on tile position or thread chunk boundaries. Scalar
// edge paths use std::fma so they round exactly like the vector FMA lanes.
#pragma once

#include <cstddef>
#include <cstdint>

namespace cpt::util {
class ThreadPool;
}  // namespace cpt::util

namespace cpt::nn::detail {

// Dense GEMM tiers (semantics identical to the public gemm_* entry points:
// accumulate into C, row-major, shapes as documented in gemm.hpp).
void gemm_nn_avx2(const float* a, const float* b, float* c, std::size_t m_dim, std::size_t k_dim,
                  std::size_t n_dim, util::ThreadPool& pool);
void gemm_nt_avx2(const float* a, const float* b, float* c, std::size_t m_dim, std::size_t k_dim,
                  std::size_t n_dim, util::ThreadPool& pool);
void gemm_tn_avx2(const float* a, const float* b, float* c, std::size_t m_dim, std::size_t k_dim,
                  std::size_t n_dim, util::ThreadPool& pool);
// The batch-invariant NT decode product (gemm.hpp gemm_nt_decode), on the
// caller's thread.
void gemm_nt_decode_avx2(const float* a, const float* b, float* c, std::size_t m_dim,
                         std::size_t k_dim, std::size_t n_dim);

// NN GEMV fast path (m == 1, single caller thread — decode-shaped work is
// far too small to shard): c[n] += sum_k a[k] * B[k,n] with B row-major [K,N].
void gemv_nn_avx2(const float* a, const float* b, float* c, std::size_t k_dim, std::size_t n_dim);

// Fused elementwise helpers used by kernels.cpp's per-row dispatch.
float dot_avx2(const float* a, const float* b, std::size_t n);
void axpy_avx2(float alpha, const float* x, float* y, std::size_t n);
// Batched attention inner loops (kernels.hpp documents the per-key
// equivalence contract): n key chains per dispatch, each chain the canonical
// dot_fma / axpy sequence for its key.
void attn_scores_avx2(const float* q, const float* krows, float* scores, std::size_t n,
                      std::size_t dh, float scale);
void attn_mix_avx2(const float* scores, const float* vrows, float* crow, std::size_t n,
                   std::size_t dh);
void attn_scores_f16_avx2(const float* q, const std::uint16_t* krows, float* scores,
                          std::size_t n, std::size_t dh, float scale);
void attn_mix_f16_avx2(const float* scores, const std::uint16_t* vrows, float* crow,
                       std::size_t n, std::size_t dh);
float reduce_max_avx2(const float* x, std::size_t n);
void scale_avx2(float* x, std::size_t n, float s);
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

// Int8 decode path (quant.cpp): idot[j] = sum_k a[k] * w[j,k] over 7-bit
// offset-64 activation codes and int8 weights — VPMADDUBSW + VPMADDWD, exact
// integers (codes are small enough that the saturating i16 stage cannot
// fire), so the result matches the scalar/sse2 forms bit for bit.
void gemv_q8_dots_avx2(const std::uint8_t* a, const std::int8_t* w, std::int32_t* idot,
                       std::size_t k_dim, std::size_t n_dim);

// fp16 KV-cache kernels (infer.cpp via kernels.cpp). Encode rounds to
// nearest-even exactly like the software converter in fp16.hpp (VCVTPS2PH
// when the host has F16C, bit-identical fallback otherwise); dot/axpy widen
// exactly and then follow the fp32 AVX2 FMA conventions.
void fp16_encode_avx2(const float* src, std::uint16_t* dst, std::size_t n);
float dot_f16_avx2(const float* a, const std::uint16_t* b, std::size_t n);
void axpy_f16_avx2(float alpha, const std::uint16_t* x, float* y, std::size_t n);

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
