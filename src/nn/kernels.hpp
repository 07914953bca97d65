// Fused elementwise kernels shared by the autograd forward pass (autograd.cpp,
// modules.cpp) and the inference decoder (infer.cpp), dispatched on the active
// SIMD tier (util/cpu.hpp). Keeping one implementation per op is what makes
// the decoder-vs-forward equivalence tests tight. Every kernel runs on its
// caller's thread: training parallelism is the trainer's data-parallel
// shards, decode parallelism the sampler lanes and serve engines.
//
// Numerics: every kernel gives the same bits on scalar and avx2. Both tiers
// run one body (kernels_inl.hpp) eight lanes wide: IEEE operations rounded
// one by one, fused multiply-adds only where the body writes them, and
// reductions in fixed trees. The bits are a pure function of (element index,
// shape).
#pragma once

#include <cmath>
#include <cstddef>

namespace cpt::nn::kernels {

// GELU (tanh approximation): the autograd gelu op and the tests' reference.
// The fused bias+GELU kernels evaluate it as x * sigmoid(2u) through an exp.
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

// ---- Attention and softmax: adds and multiplies only -------------------------
// The operation orders are DESIGN.md §9's.

// The exp polynomial: n = round(x log2 e) by adding and subtracting 1.5 * 2^23,
// r = (x - n ln2_hi) - n ln2_lo, p = ((((c0 r + c1) r + c2) r + c3) r + c4) r
// + c5, exp(r) = (p r^2 + r) + 1, scaled by 2^n through the exponent bits.
// Inputs below kExpMin give exactly 0 (so -inf gives 0), inputs above kExpMax
// saturate at exp(kExpMax), NaN gives NaN and exp(0) == 1. The result is
// never subnormal. GELU's exp shares the constants but rounds n and fuses.
inline constexpr float kExpMin = -87.3f;
inline constexpr float kExpMax = 88.3f;
inline constexpr float kExpLog2e = 1.44269504088896341f;
inline constexpr float kExpRound = 12582912.0f;  // 1.5 * 2^23
inline constexpr float kExpLn2Hi = 0.693359375f;
inline constexpr float kExpLn2Lo = -2.12194440e-4f;
inline constexpr float kExpPoly[6] = {1.9875691500e-4f, 1.3981999507e-3f, 8.3334519073e-3f,
                                      4.1665795894e-2f, 1.6666665459e-1f, 5.0000001201e-1f};
// That exp on one value (softmax and attention run it eight lanes wide).
float exp_addmul(float x);

// Stable softmax over the first `valid` of `len` entries; entries past
// `valid` are zeroed, and in == out aliasing is allowed. out_j =
// exp_addmul(in_j - max) * (1 / total), or 0 when total is not positive; the
// max skips NaN entries, so a NaN entry yields NaN there and 0 elsewhere.
void softmax_row(const float* in, float* out, std::size_t len, std::size_t valid);
// Softmax over [rows, d] (full rows valid).
void softmax_rows(const float* in, float* out, std::size_t rows, std::size_t d);

// One decode attention head over n cached keys: ctx[0, dh) = sum_p w_p v_p
// with w = softmax(scale * q . k_p), K and V rows of dh elements, contiguous.
// `scores` is caller scratch of n floats.
void attention_head(const float* q, const float* krows, const float* vrows, float* scores,
                    float* ctx, std::size_t n, std::size_t dh, float scale);

// LayerNorm over one row of width d: out = (in - mean) * inv_std * gain +
// bias. When stats2 != nullptr, writes {mean, inv_std} at stats2[0..1] (the
// autograd backward cache). in == out aliasing is allowed.
void layer_norm_row(const float* in, float* out, const float* gain, const float* bias,
                    std::size_t d, float eps, float* stats2);
// row[j] += bias[j].
void add_bias_row(float* row, const float* bias, std::size_t d);
// Fused epilogue for fc1: row[j] = gelu(row[j] + bias[j]), x * sigmoid(2u)
// through an 8-lane exp, within 1e-6 of gelu_scalar (pinned over [-10, 10]).
void bias_gelu_row(float* row, const float* bias, std::size_t d);
// y[r,:] = bias (GEMM-accumulate prologue for the decode linear layers).
void fill_bias_rows(float* y, const float* bias, std::size_t rows, std::size_t d);

// Training forms of the three row kernels above over [rows, d]: the same
// per-row body on every row (stats2, when given, holds one pair per row at
// stats2[r*2]).
void layer_norm_rows(const float* in, float* out, const float* gain, const float* bias,
                     std::size_t rows, std::size_t d, float eps, float* stats2);
void add_bias_rows(float* dst, const float* bias, std::size_t rows, std::size_t d);
void bias_gelu_rows(float* y, const float* bias, std::size_t rows, std::size_t d);

// ---- Backward kernels (training path) ----------------------------------------
// A serial *_ref beside a kernel is its test oracle
// (tests/nn_train_kernels_test.cpp); the kernel stays within tolerance of it.
// Reductions that cross rows (bias-style gradients) accumulate each column in
// ascending row order.

// Softmax backward for one row restricted to the first `valid` entries:
// dx_j += y_j * (g_j - sum_k g_k y_k), with an ascending serial dot.
void softmax_backward_row_ref(const float* y, const float* g, float* dx, std::size_t valid);
// Softmax backward over [rows, d] (full rows valid).
void softmax_backward_rows(const float* y, const float* g, float* dx, std::size_t rows,
                           std::size_t d);
// Causal variant over [mats, t, t]: row r of every matrix has r+1 valid
// entries (the attention backward of softmax_causal).
void softmax_backward_causal(const float* y, const float* g, float* dx, std::size_t mats,
                             std::size_t t);

// Fused softmax + cross-entropy forward over logits [rows, c]: writes each
// row's softmax into probs and its negative log-likelihood into rowloss
// (0.0 for rows whose target equals ignore_index). The caller reduces
// rowloss in ascending row order.
void softmax_xent_rows(const float* logits, float* probs, const int* targets, int ignore_index,
                       double* rowloss, std::size_t rows, std::size_t c);
// Cross-entropy backward: dx[r,:] += gscale * (probs[r,:] - onehot(target_r))
// for rows whose target is not ignore_index: xent_backward_row_ref per row on
// every tier.
void xent_backward_rows(const float* probs, const int* targets, int ignore_index, float* dx,
                        float gscale, std::size_t rows, std::size_t c);
void xent_backward_row_ref(const float* probs, int target, float* dx, float gscale,
                           std::size_t c);

// LayerNorm backward over rows of width d, given the forward's cached
// {mean, inv_std} pairs at stats2[r*2]. Accumulates (gy_j = g_j * gain_j,
// xhat_j = (x_j - mean) * inv):
//   dx[r,j]  += inv/d * (d*gy_j - sum(gy) - xhat_j * sum(gy*xhat))
//   dgain[j] += sum_r g[r,j] * xhat[r,j]      (ascending r per column)
//   dbias[j] += sum_r g[r,j]                  (ascending r per column)
// Any of dx/dgain/dbias may be null.
void layer_norm_backward_rows(const float* x, const float* gain, const float* g,
                              const float* stats2, float* dx, float* dgain, float* dbias,
                              std::size_t rows, std::size_t d);
// One row of the dx formula above (scalar reference).
void layer_norm_backward_row_ref(const float* x, const float* gain, const float* g, float mean,
                                 float inv, float* dx, std::size_t d);

// dst[j] += sum_r src[r,j] (ascending r per column): the bias-gradient
// reduction shared by add_bias and bias+GELU backward.
void col_sum_rows(const float* src, float* dst, std::size_t rows, std::size_t d);

// Fused bias+GELU backward: recomputes u = x[r,j] + bias[j] (no stored
// pre-activation), writes t = g[r,j] * gelu'(u) into scratch [rows, d] and
// accumulates dx[r,j] += t (dx may be null). The caller reduces scratch with
// col_sum_rows for dbias. Uses the forward's sigmoid form (within 1e-4
// relative of gelu_grad_scalar).
void bias_gelu_backward_rows(const float* x, const float* bias, const float* g, float* dx,
                             float* scratch, std::size_t rows, std::size_t d);

// ---- Optimizer kernels --------------------------------------------------------

// carry + sum(x[i]^2) in double: 8-element blocks into two 4-lane
// accumulators combined in a fixed tree, then the tail, then the carry.
double sqnorm(const float* x, std::size_t n, double carry = 0.0);

// Fused Adam/AdamW update over one parameter segment; single pass, with the
// global-norm clip factor folded into the gradient read:
//   g' = g[j] * gscale
//   m[j] = beta1*m[j] + (1-beta1)*g'
//   v[j] = beta2*v[j] + (1-beta2)*g'*g'
//   w[j] -= lr * ((m[j]/bc1) / (sqrt(v[j]/bc2) + eps) + weight_decay*w[j])
// Bit-identical to scaling the gradient first and passing gscale = 1.
void adam_update(float* w, const float* g, float* m, float* v, std::size_t n, float lr,
                 float beta1, float beta2, float eps, float weight_decay, float bc1, float bc2,
                 float gscale);
void adam_update_ref(float* w, const float* g, float* m, float* v, std::size_t n, float lr,
                     float beta1, float beta2, float eps, float weight_decay, float bc1,
                     float bc2, float gscale);

}  // namespace cpt::nn::kernels
