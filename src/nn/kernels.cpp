#include "kernels.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "fp16.hpp"
#include "simd_detail.hpp"
#include "util/cpu.hpp"
#include "util/thread_pool.hpp"

namespace cpt::nn::kernels {

namespace {

using util::SimdTier;

util::ThreadPool& pick(util::ThreadPool* pool) {
    return pool ? *pool : util::global_pool();
}

}  // namespace

float dot(const float* a, const float* b, std::size_t n) {
    if (util::active_simd_tier() == SimdTier::kAvx2) return detail::dot_avx2(a, b, n);
    // Ascending serial accumulation: the historical (pre-dispatch) order, so
    // the scalar and sse2 tiers keep bit-identical decoder output.
    float s = 0.0f;
    for (std::size_t i = 0; i < n; ++i) s += a[i] * b[i];
    return s;
}

void axpy(float alpha, const float* x, float* y, std::size_t n) {
    if (util::active_simd_tier() == SimdTier::kAvx2) {
        detail::axpy_avx2(alpha, x, y, n);
        return;
    }
    for (std::size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void attn_scores(const float* q, const float* krows, float* scores, std::size_t n,
                 std::size_t dh, float scale) {
    if (util::active_simd_tier() == SimdTier::kAvx2) {
        detail::attn_scores_avx2(q, krows, scores, n, dh, scale);
        return;
    }
    // Per key: the scalar dot's ascending serial accumulation, then the scale
    // — the exact loop the decoder ran per key before this kernel existed.
    for (std::size_t p = 0; p < n; ++p) {
        const float* k = krows + p * dh;
        float s = 0.0f;
        for (std::size_t i = 0; i < dh; ++i) s += q[i] * k[i];
        scores[p] = s * scale;
    }
}

void attn_mix(const float* scores, const float* vrows, float* crow, std::size_t n,
              std::size_t dh) {
    if (util::active_simd_tier() == SimdTier::kAvx2) {
        detail::attn_mix_avx2(scores, vrows, crow, n, dh);
        return;
    }
    for (std::size_t p = 0; p < n; ++p) {
        const float* v = vrows + p * dh;
        for (std::size_t i = 0; i < dh; ++i) crow[i] += scores[p] * v[i];
    }
}

void attn_scores_f16(const float* q, const std::uint16_t* krows, float* scores, std::size_t n,
                     std::size_t dh, float scale) {
    if (util::active_simd_tier() == SimdTier::kAvx2) {
        detail::attn_scores_f16_avx2(q, krows, scores, n, dh, scale);
        return;
    }
    for (std::size_t p = 0; p < n; ++p) {
        const std::uint16_t* k = krows + p * dh;
        float s = 0.0f;
        for (std::size_t i = 0; i < dh; ++i) s += q[i] * fp16_decode_one(k[i]);
        scores[p] = s * scale;
    }
}

void attn_mix_f16(const float* scores, const std::uint16_t* vrows, float* crow, std::size_t n,
                  std::size_t dh) {
    if (util::active_simd_tier() == SimdTier::kAvx2) {
        detail::attn_mix_f16_avx2(scores, vrows, crow, n, dh);
        return;
    }
    for (std::size_t p = 0; p < n; ++p) {
        const std::uint16_t* v = vrows + p * dh;
        for (std::size_t i = 0; i < dh; ++i) crow[i] += scores[p] * fp16_decode_one(v[i]);
    }
}

void fp16_encode(const float* src, std::uint16_t* dst, std::size_t n) {
    if (util::active_simd_tier() == SimdTier::kAvx2) {
        detail::fp16_encode_avx2(src, dst, n);
        return;
    }
    for (std::size_t i = 0; i < n; ++i) dst[i] = fp16_encode_one(src[i]);
}

float dot_f16(const float* a, const std::uint16_t* b, std::size_t n) {
    if (util::active_simd_tier() == SimdTier::kAvx2) return detail::dot_f16_avx2(a, b, n);
    // Ascending serial accumulation with an exact widen per element, mirroring
    // the fp32 dot's scalar/sse2 contract.
    float s = 0.0f;
    for (std::size_t i = 0; i < n; ++i) s += a[i] * fp16_decode_one(b[i]);
    return s;
}

void axpy_f16(float alpha, const std::uint16_t* x, float* y, std::size_t n) {
    if (util::active_simd_tier() == SimdTier::kAvx2) {
        detail::axpy_f16_avx2(alpha, x, y, n);
        return;
    }
    for (std::size_t i = 0; i < n; ++i) y[i] += alpha * fp16_decode_one(x[i]);
}

void softmax_row(const float* in, float* out, std::size_t len, std::size_t valid) {
    float mx = -std::numeric_limits<float>::infinity();
    if (util::active_simd_tier() == SimdTier::kAvx2 && valid >= 8) {
        mx = detail::reduce_max_avx2(in, valid);  // max is association-exact
    } else {
        for (std::size_t j = 0; j < valid; ++j) mx = std::max(mx, in[j]);
    }
    // exp and the normalizer sum stay scalar on every tier: the sum is an
    // ascending serial reduction, so softmax output is identical across tiers
    // (pinned by the parity tests), not just across thread counts.
    float total = 0.0f;
    for (std::size_t j = 0; j < valid; ++j) {
        out[j] = std::exp(in[j] - mx);
        total += out[j];
    }
    const float inv = total > 0.0f ? 1.0f / total : 0.0f;
    if (util::active_simd_tier() == SimdTier::kAvx2 && valid >= 8) {
        detail::scale_avx2(out, valid, inv);
    } else {
        for (std::size_t j = 0; j < valid; ++j) out[j] *= inv;
    }
    for (std::size_t j = valid; j < len; ++j) out[j] = 0.0f;
}

void softmax_rows(const float* in, float* out, std::size_t rows, std::size_t d,
                  util::ThreadPool* pool) {
    pick(pool).parallel_for(rows, util::grain_for(8 * d), [&](std::size_t r0, std::size_t r1) {
        for (std::size_t r = r0; r < r1; ++r) softmax_row(in + r * d, out + r * d, d, d);
    });
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
                     std::size_t rows, std::size_t d, float eps, float* stats2,
                     util::ThreadPool* pool) {
    pick(pool).parallel_for(rows, util::grain_for(6 * d), [&](std::size_t r0, std::size_t r1) {
        for (std::size_t r = r0; r < r1; ++r) {
            layer_norm_row(in + r * d, out + r * d, gain, bias, d, eps,
                           stats2 != nullptr ? stats2 + r * 2 : nullptr);
        }
    });
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

void add_bias_rows(float* dst, const float* bias, std::size_t rows, std::size_t d,
                   util::ThreadPool* pool) {
    pick(pool).parallel_for(rows, util::grain_for(d), [&](std::size_t r0, std::size_t r1) {
        for (std::size_t r = r0; r < r1; ++r) add_bias_row(dst + r * d, bias, d);
    });
}

void gelu_rows(float* x, std::size_t n, util::ThreadPool* pool) {
    pick(pool).parallel_for(n, util::grain_for(24), [&](std::size_t i0, std::size_t i1) {
        for (std::size_t i = i0; i < i1; ++i) x[i] = gelu_scalar(x[i]);
    });
}

void bias_gelu_row(float* row, const float* bias, std::size_t d) {
    if (util::active_simd_tier() == SimdTier::kAvx2) {
        detail::bias_gelu_row_avx2(row, bias, d);
        return;
    }
    for (std::size_t j = 0; j < d; ++j) row[j] = gelu_scalar(row[j] + bias[j]);
}

void bias_gelu_rows(float* y, const float* bias, std::size_t rows, std::size_t d,
                    util::ThreadPool* pool) {
    pick(pool).parallel_for(rows, util::grain_for(26 * d), [&](std::size_t r0, std::size_t r1) {
        for (std::size_t r = r0; r < r1; ++r) bias_gelu_row(y + r * d, bias, d);
    });
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
                           std::size_t d, util::ThreadPool* pool) {
    const bool avx2 = util::active_simd_tier() == SimdTier::kAvx2;
    pick(pool).parallel_for(rows, util::grain_for(4 * d), [&](std::size_t r0, std::size_t r1) {
        for (std::size_t r = r0; r < r1; ++r) {
            softmax_backward_row(y + r * d, g + r * d, dx + r * d, d, avx2);
        }
    });
}

void softmax_backward_causal(const float* y, const float* g, float* dx, std::size_t mats,
                             std::size_t t, util::ThreadPool* pool) {
    const bool avx2 = util::active_simd_tier() == SimdTier::kAvx2;
    pick(pool).parallel_for(mats, util::grain_for(2 * t * t), [&](std::size_t m0, std::size_t m1) {
        for (std::size_t m = m0; m < m1; ++m) {
            for (std::size_t r = 0; r < t; ++r) {
                const std::size_t off = (m * t + r) * t;
                softmax_backward_row(y + off, g + off, dx + off, r + 1, avx2);
            }
        }
    });
}

void softmax_xent_rows(const float* logits, float* probs, const int* targets, int ignore_index,
                       double* rowloss, std::size_t rows, std::size_t c,
                       util::ThreadPool* pool) {
    pick(pool).parallel_for(rows, util::grain_for(8 * c), [&](std::size_t r0, std::size_t r1) {
        for (std::size_t r = r0; r < r1; ++r) {
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
    });
}

void xent_backward_row_ref(const float* probs, int target, float* dx, float gscale,
                           std::size_t c) {
    for (std::size_t j = 0; j < c; ++j) {
        const float onehot = (static_cast<std::size_t>(target) == j) ? 1.0f : 0.0f;
        dx[j] += gscale * (probs[j] - onehot);
    }
}

void xent_backward_rows(const float* probs, const int* targets, int ignore_index, float* dx,
                        float gscale, std::size_t rows, std::size_t c, util::ThreadPool* pool) {
    const bool avx2 = util::active_simd_tier() == SimdTier::kAvx2;
    pick(pool).parallel_for(rows, util::grain_for(3 * c), [&](std::size_t r0, std::size_t r1) {
        for (std::size_t r = r0; r < r1; ++r) {
            const int tgt = targets[r];
            if (tgt == ignore_index) continue;
            if (avx2 && c >= 8) {
                detail::axpy_avx2(gscale, probs + r * c, dx + r * c, c);
                dx[r * c + static_cast<std::size_t>(tgt)] -= gscale;
            } else {
                xent_backward_row_ref(probs + r * c, tgt, dx + r * c, gscale, c);
            }
        }
    });
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
                              std::size_t rows, std::size_t d, util::ThreadPool* pool) {
    auto& tp = pick(pool);
    const bool avx2 = util::active_simd_tier() == SimdTier::kAvx2;
    if (dx != nullptr) {
        // dx rows are disjoint: shard over rows.
        tp.parallel_for(rows, util::grain_for(10 * d), [&](std::size_t r0, std::size_t r1) {
            for (std::size_t r = r0; r < r1; ++r) {
                if (avx2) {
                    detail::layer_norm_backward_row_avx2(x + r * d, gain, g + r * d,
                                                         stats2[r * 2], stats2[r * 2 + 1],
                                                         dx + r * d, d);
                } else {
                    layer_norm_backward_row_ref(x + r * d, gain, g + r * d, stats2[r * 2],
                                                stats2[r * 2 + 1], dx + r * d, d);
                }
            }
        });
    }
    if (dgain == nullptr && dbias == nullptr) return;
    // dgain/dbias reduce across rows: shard over columns, each accumulated in
    // ascending row order directly into the destination — bit-identical for
    // every thread count, and equal to the single-threaded historical order.
    tp.parallel_for(d, util::grain_for(4 * rows), [&](std::size_t j0, std::size_t j1) {
        for (std::size_t r = 0; r < rows; ++r) {
            const float mean = stats2[r * 2];
            const float inv = stats2[r * 2 + 1];
            const float* xrow = x + r * d;
            const float* grow = g + r * d;
            if (dgain != nullptr) {
                for (std::size_t j = j0; j < j1; ++j) {
                    dgain[j] += grow[j] * ((xrow[j] - mean) * inv);
                }
            }
            if (dbias != nullptr) {
                for (std::size_t j = j0; j < j1; ++j) dbias[j] += grow[j];
            }
        }
    });
}

void col_sum_rows(const float* src, float* dst, std::size_t rows, std::size_t d,
                  util::ThreadPool* pool) {
    // Row-outer within each column block (cache-friendly), ascending r per
    // column: the same per-column accumulation order as the historical serial
    // double loop, independent of the thread count.
    pick(pool).parallel_for(d, util::grain_for(2 * rows), [&](std::size_t j0, std::size_t j1) {
        for (std::size_t r = 0; r < rows; ++r) {
            const float* row = src + r * d;
            for (std::size_t j = j0; j < j1; ++j) dst[j] += row[j];
        }
    });
}

void bias_gelu_backward_rows(const float* x, const float* bias, const float* g, float* dx,
                             float* scratch, std::size_t rows, std::size_t d,
                             util::ThreadPool* pool) {
    const bool avx2 = util::active_simd_tier() == SimdTier::kAvx2;
    pick(pool).parallel_for(rows, util::grain_for(30 * d), [&](std::size_t r0, std::size_t r1) {
        for (std::size_t r = r0; r < r1; ++r) {
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
    });
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
