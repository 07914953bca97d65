// Fused elementwise kernels shared by the autograd forward pass (autograd.cpp,
// modules.cpp) and the inference decoder (infer.cpp), dispatched on the active
// SIMD tier (util/cpu.hpp). Keeping one implementation per op is what makes
// the decoder-vs-forward equivalence tests tight and the tier parity tests
// meaningful. Decode calls the single-row and plain-loop kernels on its
// caller's thread; only the training-side `_rows` forms take a thread pool
// (pool = nullptr means util::global_pool()).
//
// Numerics: on the scalar and sse2 tiers every function below performs the
// exact per-element operation order the pre-dispatch code performed, so those
// tiers remain bit-identical to the historical outputs. The avx2 tier may
// reassociate reductions, use FMA, and evaluate GELU through a vectorised
// exp; within that tier results are still a pure function of (element
// index, shape), never of thread count.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>

namespace cpt::util {
class ThreadPool;
}  // namespace cpt::util

namespace cpt::nn::kernels {

// GELU (tanh approximation) — the single definition of the activation's math,
// used by the autograd op, the fused bias+GELU kernel, and the decoder.
inline constexpr float kGeluC = 0.7978845608028654f;  // sqrt(2/pi)
inline constexpr float kGeluA = 0.044715f;

inline float gelu_scalar(float x) {
    const float u = kGeluC * (x + kGeluA * x * x * x);
    return 0.5f * x * (1.0f + std::tanh(u));
}

inline float gelu_grad_scalar(float x) {
    const float u = kGeluC * (x + kGeluA * x * x * x);
    const float t = std::tanh(u);
    const float du = kGeluC * (1.0f + 3.0f * kGeluA * x * x);
    return 0.5f * (1.0f + t) + 0.5f * x * (1.0f - t * t) * du;
}

// dot/axpy along contiguous spans, tier-dispatched (decoder attention).
float dot(const float* a, const float* b, std::size_t n);
void axpy(float alpha, const float* x, float* y, std::size_t n);

// Batched attention inner loops. Each call is defined as the per-key loop it
// replaces — scores[p] = dot(q, krows + p*dh) * scale for p in [0, n), and
// crow += scores[p] * vrows[p*dh..] applied in ascending p — with the SAME
// per-element operation order as n separate dot/axpy calls on every tier, so
// swapping the loops for these kernels is unobservable in decoder output.
// They exist because the per-key calls pay a tier dispatch per key and leave
// the dot's FMA chain latency-bound; the batched forms dispatch once, run
// several independent key chains in flight, and keep the context row in
// registers across keys (dh <= 64, the decoder head sizes).
void attn_scores(const float* q, const float* krows, float* scores, std::size_t n,
                 std::size_t dh, float scale);
void attn_mix(const float* scores, const float* vrows, float* crow, std::size_t n,
              std::size_t dh);
void attn_scores_f16(const float* q, const std::uint16_t* krows, float* scores, std::size_t n,
                     std::size_t dh, float scale);
void attn_mix_f16(const float* scores, const std::uint16_t* vrows, float* crow, std::size_t n,
                  std::size_t dh);

// fp16-storage KV-cache kernels (infer.cpp). Encoding rounds fp32 to
// nearest-even binary16 — the SAME bits on every tier (software converter on
// scalar/sse2, VCVTPS2PH or the identical software fallback on avx2), so the
// cache contents never depend on the tier. dot_f16/axpy_f16 widen the halves
// exactly and then follow the fp32 dot/axpy tier conventions: ascending
// scalar on scalar/sse2 (bit-identical to each other), FMA forms on avx2.
void fp16_encode(const float* src, std::uint16_t* dst, std::size_t n);
float dot_f16(const float* a, const std::uint16_t* b, std::size_t n);
void axpy_f16(float alpha, const std::uint16_t* x, float* y, std::size_t n);

// Stable softmax over the first `valid` of `len` entries; entries past
// `valid` are zeroed. The exp/sum stage is scalar on every tier (the sum is
// an ascending serial reduction), so softmax output is identical across
// tiers as well as thread counts.
void softmax_row(const float* in, float* out, std::size_t len, std::size_t valid);
// Row-parallel softmax over [rows, d] (full rows valid).
void softmax_rows(const float* in, float* out, std::size_t rows, std::size_t d,
                  util::ThreadPool* pool = nullptr);

// LayerNorm over one row of width d: out = (in - mean) * inv_std * gain +
// bias. When stats2 != nullptr, writes {mean, inv_std} at stats2[0..1] (the
// autograd backward cache). in == out aliasing is allowed.
void layer_norm_row(const float* in, float* out, const float* gain, const float* bias,
                    std::size_t d, float eps, float* stats2);
// row[j] += bias[j].
void add_bias_row(float* row, const float* bias, std::size_t d);
// Fused epilogue for fc1: row[j] = gelu(row[j] + bias[j]). gelu_scalar bit
// for bit on scalar/sse2; on avx2 an 8-wide x * sigmoid(2u) with a
// vectorised exp, within 1e-6 of gelu_scalar (pinned over [-10, 10]).
void bias_gelu_row(float* row, const float* bias, std::size_t d);
// y[r,:] = bias (GEMM-accumulate prologue for the decode linear layers).
void fill_bias_rows(float* y, const float* bias, std::size_t rows, std::size_t d);

// Row-parallel training forms of the three row kernels above over [rows, d]:
// the same per-row body on every row (stats2, when given, holds one pair
// per row at stats2[r*2]), so a row's bits never depend on the thread count.
void layer_norm_rows(const float* in, float* out, const float* gain, const float* bias,
                     std::size_t rows, std::size_t d, float eps, float* stats2,
                     util::ThreadPool* pool = nullptr);
void add_bias_rows(float* dst, const float* bias, std::size_t rows, std::size_t d,
                   util::ThreadPool* pool = nullptr);
void bias_gelu_rows(float* y, const float* bias, std::size_t rows, std::size_t d,
                    util::ThreadPool* pool = nullptr);
// x[i] = gelu(x[i]) in place.
void gelu_rows(float* x, std::size_t n, util::ThreadPool* pool = nullptr);

// ---- Backward kernels (training path) ----------------------------------------
// Each dispatched kernel keeps a scalar reference (*_ref) beside it, like the
// gemm_*_ref kernels, pinned by tests/nn_train_kernels_test.cpp. Reductions
// that cross rows (bias-style gradients) shard over COLUMNS with an
// ascending-row accumulation per column, so their results are bit-identical
// for every thread count — not merely for a fixed one.

// Softmax backward for one row restricted to the first `valid` entries:
// dx_j += y_j * (g_j - sum_k g_k y_k), with an ascending serial dot.
void softmax_backward_row_ref(const float* y, const float* g, float* dx, std::size_t valid);
// Row-parallel softmax backward over [rows, d] (full rows valid).
void softmax_backward_rows(const float* y, const float* g, float* dx, std::size_t rows,
                           std::size_t d, util::ThreadPool* pool = nullptr);
// Causal variant over [mats, t, t]: row r of every matrix has r+1 valid
// entries (the attention backward of softmax_causal).
void softmax_backward_causal(const float* y, const float* g, float* dx, std::size_t mats,
                             std::size_t t, util::ThreadPool* pool = nullptr);

// Fused softmax + cross-entropy forward over logits [rows, c]: writes each
// row's softmax into probs and its negative log-likelihood into rowloss
// (0.0 for rows whose target equals ignore_index). Row-parallel; the caller
// reduces rowloss serially, keeping the loss value thread-count independent.
void softmax_xent_rows(const float* logits, float* probs, const int* targets, int ignore_index,
                       double* rowloss, std::size_t rows, std::size_t c,
                       util::ThreadPool* pool = nullptr);
// Cross-entropy backward: dx[r,:] += gscale * (probs[r,:] - onehot(target_r))
// for rows whose target is not ignore_index.
void xent_backward_rows(const float* probs, const int* targets, int ignore_index, float* dx,
                        float gscale, std::size_t rows, std::size_t c,
                        util::ThreadPool* pool = nullptr);
void xent_backward_row_ref(const float* probs, int target, float* dx, float gscale,
                           std::size_t c);

// LayerNorm backward over rows of width d, given the forward's cached
// {mean, inv_std} pairs at stats2[r*2]. Accumulates (gy_j = g_j * gain_j,
// xhat_j = (x_j - mean) * inv):
//   dx[r,j]  += inv/d * (d*gy_j - sum(gy) - xhat_j * sum(gy*xhat))
//   dgain[j] += sum_r g[r,j] * xhat[r,j]      (ascending r per column)
//   dbias[j] += sum_r g[r,j]                  (ascending r per column)
// dx rows are disjoint and shard over rows; dgain/dbias shard over columns.
// Any of dx/dgain/dbias may be null.
void layer_norm_backward_rows(const float* x, const float* gain, const float* g,
                              const float* stats2, float* dx, float* dgain, float* dbias,
                              std::size_t rows, std::size_t d,
                              util::ThreadPool* pool = nullptr);
// One row of the dx formula above (scalar reference).
void layer_norm_backward_row_ref(const float* x, const float* gain, const float* g, float mean,
                                 float inv, float* dx, std::size_t d);

// dst[j] += sum_r src[r,j] (ascending r per column, column-parallel): the
// bias-gradient reduction shared by add_bias and bias+GELU backward.
void col_sum_rows(const float* src, float* dst, std::size_t rows, std::size_t d,
                  util::ThreadPool* pool = nullptr);

// Fused bias+GELU backward: recomputes u = x[r,j] + bias[j] (no stored
// pre-activation), writes t = g[r,j] * gelu'(u) into scratch [rows, d] and
// accumulates dx[r,j] += t (dx may be null). The caller reduces scratch with
// col_sum_rows for dbias. avx2 uses the forward's sigmoid form (within 1e-4
// relative of gelu_grad_scalar).
void bias_gelu_backward_rows(const float* x, const float* bias, const float* g, float* dx,
                             float* scratch, std::size_t rows, std::size_t d,
                             util::ThreadPool* pool = nullptr);

// ---- Optimizer kernels --------------------------------------------------------

// carry + sum(x[i]^2) with double-precision ascending accumulation on the
// scalar/sse2 tiers — chaining calls over parameter tensors reproduces the
// historical clip_grad_norm loop bit-for-bit. avx2 uses four double lanes
// with a fixed combine order (tolerance, still thread-count independent —
// the function is single-threaded either way).
double sqnorm(const float* x, std::size_t n, double carry = 0.0);

// Fused Adam/AdamW update over one parameter segment; single pass, with the
// global-norm clip factor folded into the gradient read:
//   g' = g[j] * gscale
//   m[j] = beta1*m[j] + (1-beta1)*g'
//   v[j] = beta2*v[j] + (1-beta2)*g'*g'
//   w[j] -= lr * ((m[j]/bc1) / (sqrt(v[j]/bc2) + eps) + weight_decay*w[j])
// On scalar/sse2 this is bit-identical to scaling the gradient in place and
// running the historical per-element Adam loop.
void adam_update(float* w, const float* g, float* m, float* v, std::size_t n, float lr,
                 float beta1, float beta2, float eps, float weight_decay, float bc1, float bc2,
                 float gscale);
void adam_update_ref(float* w, const float* g, float* m, float* v, std::size_t n, float lr,
                     float beta1, float beta2, float eps, float weight_decay, float bc1,
                     float bc2, float gscale);

}  // namespace cpt::nn::kernels
