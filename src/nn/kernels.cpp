#include "kernels.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>

#include "simd_detail.hpp"
#include "util/cpu.hpp"

namespace cpt::nn::kernels {

namespace {

using util::SimdTier;

}  // namespace

float exp_addmul(float x) {
    if (x < kExpMin) return 0.0f;
    if (std::isnan(x)) return x;
    x = kExpMax < x ? kExpMax : x;
    const float t = x * kExpLog2e + kExpRound;
    const float n = t - kExpRound;
    float r = x - n * kExpLn2Hi;
    r = r - n * kExpLn2Lo;
    float p = kExpPoly[0];
    for (std::size_t c = 1; c < std::size(kExpPoly); ++c) p = p * r + kExpPoly[c];
    p = (p * (r * r) + r) + 1.0f;
    // t's low mantissa bits hold n; n + 127 in the exponent field is 2^n.
    const std::int32_t ni =
        std::bit_cast<std::int32_t>(t) - std::bit_cast<std::int32_t>(kExpRound);
    return p * std::bit_cast<float>(static_cast<std::uint32_t>(ni + 127) << 23);
}

namespace {

// The scalar tier's form of softmax_row's exp and normaliser: e_j into out,
// eight lane partials, then hsum8's tree. Returns the total.
float exp_shifted_sum(const float* in, float* out, std::size_t n, float mx) {
    float lanes[8] = {};
    for (std::size_t j = 0; j < n; ++j) {
        const float e = exp_addmul(in[j] - mx);
        out[j] = e;
        lanes[j % 8] = lanes[j % 8] + e;
    }
    return ((lanes[0] + lanes[4]) + (lanes[2] + lanes[6])) +
           ((lanes[1] + lanes[5]) + (lanes[3] + lanes[7]));
}

// attention_head's order (kernels.hpp), one lane at a time.
void attention_head_scalar(const float* q, const float* krows, const float* vrows, float* scores,
                           float* ctx, std::size_t n, std::size_t dh, float scale) {
    float mx = -std::numeric_limits<float>::infinity();
    for (std::size_t p = 0; p < n; ++p) {
        const float* k = krows + p * dh;
        float lanes[8] = {};
        for (std::size_t c = 0; c < dh; c += 8) {
            for (std::size_t l = 0; l < 8; ++l) {
                const std::size_t i = c + l;
                const float prod = i < dh ? q[i] * k[i] : 0.0f;
                lanes[l] = c == 0 ? prod : lanes[l] + prod;
            }
        }
        const float s = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) +
                        ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
        scores[p] = s * scale;
        mx = std::max(mx, scores[p]);
    }
    const float total = exp_shifted_sum(scores, scores, n, mx);
    const float inv = total > 0.0f ? 1.0f / total : 0.0f;
    std::fill_n(ctx, dh, 0.0f);
    for (std::size_t p = 0; p < n; ++p) {
        const float w = scores[p] * inv;
        const float* v = vrows + p * dh;
        for (std::size_t i = 0; i < dh; ++i) ctx[i] = ctx[i] + w * v[i];
    }
}

}  // namespace

void attention_head(const float* q, const float* krows, const float* vrows, float* scores,
                    float* ctx, std::size_t n, std::size_t dh, float scale) {
    if (util::active_simd_tier() == SimdTier::kAvx2) {
        detail::attention_head_avx2(q, krows, vrows, scores, ctx, n, dh, scale);
        return;
    }
    attention_head_scalar(q, krows, vrows, scores, ctx, n, dh, scale);
}

void softmax_row(const float* in, float* out, std::size_t len, std::size_t valid) {
    if (util::active_simd_tier() == SimdTier::kAvx2) {
        detail::softmax_row_avx2(in, out, valid);
    } else {
        float mx = -std::numeric_limits<float>::infinity();
        for (std::size_t j = 0; j < valid; ++j) mx = std::max(mx, in[j]);
        const float total = exp_shifted_sum(in, out, valid, mx);
        const float inv = total > 0.0f ? 1.0f / total : 0.0f;
        for (std::size_t j = 0; j < valid; ++j) out[j] = out[j] * inv;
    }
    for (std::size_t j = valid; j < len; ++j) out[j] = 0.0f;
}

void softmax_rows(const float* in, float* out, std::size_t rows, std::size_t d) {
    for (std::size_t r = 0; r < rows; ++r) softmax_row(in + r * d, out + r * d, d, d);
}

void layer_norm_row(const float* in, float* out, const float* gain, const float* bias,
                    std::size_t d, float eps, float* stats2) {
    if (util::active_simd_tier() == SimdTier::kAvx2) {
        detail::layer_norm_row_avx2(in, out, gain, bias, d, eps, stats2);
        return;
    }
    float mean = 0.0f;
    for (std::size_t j = 0; j < d; ++j) mean += in[j];
    mean /= static_cast<float>(d);
    float var = 0.0f;
    for (std::size_t j = 0; j < d; ++j) var += (in[j] - mean) * (in[j] - mean);
    var /= static_cast<float>(d);
    const float inv = 1.0f / std::sqrt(var + eps);
    if (stats2 != nullptr) {
        stats2[0] = mean;
        stats2[1] = inv;
    }
    for (std::size_t j = 0; j < d; ++j) out[j] = (in[j] - mean) * inv * gain[j] + bias[j];
}

void layer_norm_rows(const float* in, float* out, const float* gain, const float* bias,
                     std::size_t rows, std::size_t d, float eps, float* stats2) {
    for (std::size_t r = 0; r < rows; ++r) {
        layer_norm_row(in + r * d, out + r * d, gain, bias, d, eps,
                       stats2 != nullptr ? stats2 + r * 2 : nullptr);
    }
}

void fill_bias_rows(float* y, const float* bias, std::size_t rows, std::size_t d) {
    for (std::size_t r = 0; r < rows; ++r) std::copy_n(bias, d, y + r * d);
}

void add_bias_row(float* row, const float* bias, std::size_t d) {
    if (util::active_simd_tier() == SimdTier::kAvx2) {
        detail::add_bias_row_avx2(row, bias, d);
        return;
    }
    for (std::size_t j = 0; j < d; ++j) row[j] += bias[j];
}

void add_bias_rows(float* dst, const float* bias, std::size_t rows, std::size_t d) {
    for (std::size_t r = 0; r < rows; ++r) add_bias_row(dst + r * d, bias, d);
}

void bias_gelu_row(float* row, const float* bias, std::size_t d) {
    if (util::active_simd_tier() == SimdTier::kAvx2) {
        detail::bias_gelu_row_avx2(row, bias, d);
        return;
    }
    for (std::size_t j = 0; j < d; ++j) row[j] = gelu_scalar(row[j] + bias[j]);
}

void bias_gelu_rows(float* y, const float* bias, std::size_t rows, std::size_t d) {
    for (std::size_t r = 0; r < rows; ++r) bias_gelu_row(y + r * d, bias, d);
}

// ---- Backward kernels (training path) ----------------------------------------

void softmax_backward_row_ref(const float* y, const float* g, float* dx, std::size_t valid) {
    float dot = 0.0f;
    for (std::size_t j = 0; j < valid; ++j) dot += g[j] * y[j];
    for (std::size_t j = 0; j < valid; ++j) dx[j] += y[j] * (g[j] - dot);
}

namespace {

inline void softmax_backward_row(const float* y, const float* g, float* dx, std::size_t valid,
                                 bool avx2) {
    if (avx2 && valid >= 8) {
        detail::softmax_backward_row_avx2(y, g, dx, valid);
    } else {
        softmax_backward_row_ref(y, g, dx, valid);
    }
}

}  // namespace

void softmax_backward_rows(const float* y, const float* g, float* dx, std::size_t rows,
                           std::size_t d) {
    const bool avx2 = util::active_simd_tier() == SimdTier::kAvx2;
    for (std::size_t r = 0; r < rows; ++r) {
        softmax_backward_row(y + r * d, g + r * d, dx + r * d, d, avx2);
    }
}

void softmax_backward_causal(const float* y, const float* g, float* dx, std::size_t mats,
                             std::size_t t) {
    const bool avx2 = util::active_simd_tier() == SimdTier::kAvx2;
    for (std::size_t m = 0; m < mats; ++m) {
        for (std::size_t r = 0; r < t; ++r) {
            const std::size_t off = (m * t + r) * t;
            softmax_backward_row(y + off, g + off, dx + off, r + 1, avx2);
        }
    }
}

void softmax_xent_rows(const float* logits, float* probs, const int* targets, int ignore_index,
                       double* rowloss, std::size_t rows, std::size_t c) {
    for (std::size_t r = 0; r < rows; ++r) {
        softmax_row(logits + r * c, probs + r * c, c, c);
        const int tgt = targets[r];
        // float log, matching the historical serial loss loop bit-for-bit
        // once the caller sums rowloss in ascending row order.
        rowloss[r] =
            tgt == ignore_index
                ? 0.0
                : -static_cast<double>(
                      std::log(std::max(probs[r * c + static_cast<std::size_t>(tgt)], 1e-12f)));
    }
}

void xent_backward_row_ref(const float* probs, int target, float* dx, float gscale,
                           std::size_t c) {
    for (std::size_t j = 0; j < c; ++j) {
        const float onehot = (static_cast<std::size_t>(target) == j) ? 1.0f : 0.0f;
        dx[j] += gscale * (probs[j] - onehot);
    }
}

void xent_backward_rows(const float* probs, const int* targets, int ignore_index, float* dx,
                        float gscale, std::size_t rows, std::size_t c) {
    for (std::size_t r = 0; r < rows; ++r) {
        if (targets[r] == ignore_index) continue;
        xent_backward_row_ref(probs + r * c, targets[r], dx + r * c, gscale, c);
    }
}

void layer_norm_backward_row_ref(const float* x, const float* gain, const float* g, float mean,
                                 float inv, float* dx, std::size_t d) {
    float sum_gy = 0.0f;
    float sum_gy_xhat = 0.0f;
    for (std::size_t j = 0; j < d; ++j) {
        const float gy = g[j] * gain[j];
        const float xhat = (x[j] - mean) * inv;
        sum_gy += gy;
        sum_gy_xhat += gy * xhat;
    }
    const float dn = static_cast<float>(d);
    for (std::size_t j = 0; j < d; ++j) {
        const float gy = g[j] * gain[j];
        const float xhat = (x[j] - mean) * inv;
        dx[j] += inv / dn * (dn * gy - sum_gy - xhat * sum_gy_xhat);
    }
}

void layer_norm_backward_rows(const float* x, const float* gain, const float* g,
                              const float* stats2, float* dx, float* dgain, float* dbias,
                              std::size_t rows, std::size_t d) {
    const bool avx2 = util::active_simd_tier() == SimdTier::kAvx2;
    if (dx != nullptr) {
        for (std::size_t r = 0; r < rows; ++r) {
            if (avx2) {
                detail::layer_norm_backward_row_avx2(x + r * d, gain, g + r * d,
                                                     stats2[r * 2], stats2[r * 2 + 1],
                                                     dx + r * d, d);
            } else {
                layer_norm_backward_row_ref(x + r * d, gain, g + r * d, stats2[r * 2],
                                            stats2[r * 2 + 1], dx + r * d, d);
            }
        }
    }
    if (dgain == nullptr && dbias == nullptr) return;
    // dgain/dbias reduce across rows: each column accumulates in ascending row
    // order directly into the destination, the historical serial order.
    for (std::size_t r = 0; r < rows; ++r) {
        const float mean = stats2[r * 2];
        const float inv = stats2[r * 2 + 1];
        const float* xrow = x + r * d;
        const float* grow = g + r * d;
        if (dgain != nullptr) {
            for (std::size_t j = 0; j < d; ++j) {
                dgain[j] += grow[j] * ((xrow[j] - mean) * inv);
            }
        }
        if (dbias != nullptr) {
            for (std::size_t j = 0; j < d; ++j) dbias[j] += grow[j];
        }
    }
}

void col_sum_rows(const float* src, float* dst, std::size_t rows, std::size_t d) {
    // Row-outer (cache-friendly), ascending r per column: the same
    // per-column accumulation order as the historical serial double loop.
    for (std::size_t r = 0; r < rows; ++r) {
        const float* row = src + r * d;
        for (std::size_t j = 0; j < d; ++j) dst[j] += row[j];
    }
}

void bias_gelu_backward_rows(const float* x, const float* bias, const float* g, float* dx,
                             float* scratch, std::size_t rows, std::size_t d) {
    const bool avx2 = util::active_simd_tier() == SimdTier::kAvx2;
    for (std::size_t r = 0; r < rows; ++r) {
        const float* xrow = x + r * d;
        const float* grow = g + r * d;
        float* srow = scratch + r * d;
        if (avx2) {
            detail::bias_gelu_backward_row_avx2(xrow, bias, grow,
                                                dx != nullptr ? dx + r * d : nullptr, srow, d);
        } else if (dx != nullptr) {
            float* dxrow = dx + r * d;
            for (std::size_t j = 0; j < d; ++j) {
                const float t = grow[j] * gelu_grad_scalar(xrow[j] + bias[j]);
                srow[j] = t;
                dxrow[j] += t;
            }
        } else {
            for (std::size_t j = 0; j < d; ++j) {
                srow[j] = grow[j] * gelu_grad_scalar(xrow[j] + bias[j]);
            }
        }
    }
}

// ---- Optimizer kernels --------------------------------------------------------

double sqnorm(const float* x, std::size_t n, double carry) {
    if (util::active_simd_tier() == SimdTier::kAvx2) return carry + detail::sqnorm_avx2(x, n);
    double s = carry;
    for (std::size_t i = 0; i < n; ++i) s += static_cast<double>(x[i]) * x[i];
    return s;
}

void adam_update_ref(float* w, const float* g, float* m, float* v, std::size_t n, float lr,
                     float beta1, float beta2, float eps, float weight_decay, float bc1,
                     float bc2, float gscale) {
    for (std::size_t j = 0; j < n; ++j) {
        const float gj = g[j] * gscale;
        m[j] = beta1 * m[j] + (1.0f - beta1) * gj;
        v[j] = beta2 * v[j] + (1.0f - beta2) * gj * gj;
        const float mhat = m[j] / bc1;
        const float vhat = v[j] / bc2;
        w[j] -= lr * (mhat / (std::sqrt(vhat) + eps) + weight_decay * w[j]);
    }
}

void adam_update(float* w, const float* g, float* m, float* v, std::size_t n, float lr,
                 float beta1, float beta2, float eps, float weight_decay, float bc1, float bc2,
                 float gscale) {
    if (util::active_simd_tier() == SimdTier::kAvx2) {
        detail::adam_update_avx2(w, g, m, v, n, lr, beta1, beta2, eps, weight_decay, bc1, bc2,
                                 gscale);
        return;
    }
    adam_update_ref(w, g, m, v, n, lr, beta1, beta2, eps, weight_decay, bc1, bc2, gscale);
}

}  // namespace cpt::nn::kernels
