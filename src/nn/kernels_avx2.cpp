// AVX2+FMA elementwise kernel tier (dot/axpy, LayerNorm rows, softmax
// helpers). Built with -mavx2 -mfma; see gemm_avx2.cpp for the compile-gate
// and determinism conventions shared by both AVX2 translation units.
#include "simd_detail.hpp"

#include "kernels.hpp"
#include "util/check.hpp"

#if defined(__AVX2__) && defined(__FMA__)

#include "simd_avx2_inl.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "fp16.hpp"

namespace cpt::nn::detail {

float dot_avx2(const float* a, const float* b, std::size_t n) { return dot_fma(a, b, n); }

void axpy_avx2(float alpha, const float* x, float* y, std::size_t n) {
    const __m256 av = _mm256_set1_ps(alpha);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        _mm256_storeu_ps(y + i, _mm256_fmadd_ps(av, _mm256_loadu_ps(x + i), _mm256_loadu_ps(y + i)));
    }
    for (; i < n; ++i) y[i] = std::fma(alpha, x[i], y[i]);
}

void attn_scores_avx2(const float* q, const float* krows, float* scores, std::size_t n,
                      std::size_t dh, float scale) {
    // Four keys in flight, each with its own dot_fma-shaped accumulator pair
    // (16-element main loop, 8-element step, hsum8 of acc0+acc1, std::fma
    // tail), so scores[p] carries exactly the bits of dot_fma(q, key_p) *
    // scale while the q loads are shared and the FMA chains overlap instead
    // of serialising on one chain's latency.
    std::size_t p = 0;
    for (; p + 4 <= n; p += 4) {
        const float* k0 = krows + p * dh;
        const float* k1 = k0 + dh;
        const float* k2 = k1 + dh;
        const float* k3 = k2 + dh;
        __m256 a00 = _mm256_setzero_ps(), a01 = _mm256_setzero_ps();
        __m256 a10 = _mm256_setzero_ps(), a11 = _mm256_setzero_ps();
        __m256 a20 = _mm256_setzero_ps(), a21 = _mm256_setzero_ps();
        __m256 a30 = _mm256_setzero_ps(), a31 = _mm256_setzero_ps();
        std::size_t i = 0;
        for (; i + 16 <= dh; i += 16) {
            const __m256 q0 = _mm256_loadu_ps(q + i);
            const __m256 q1 = _mm256_loadu_ps(q + i + 8);
            a00 = _mm256_fmadd_ps(q0, _mm256_loadu_ps(k0 + i), a00);
            a01 = _mm256_fmadd_ps(q1, _mm256_loadu_ps(k0 + i + 8), a01);
            a10 = _mm256_fmadd_ps(q0, _mm256_loadu_ps(k1 + i), a10);
            a11 = _mm256_fmadd_ps(q1, _mm256_loadu_ps(k1 + i + 8), a11);
            a20 = _mm256_fmadd_ps(q0, _mm256_loadu_ps(k2 + i), a20);
            a21 = _mm256_fmadd_ps(q1, _mm256_loadu_ps(k2 + i + 8), a21);
            a30 = _mm256_fmadd_ps(q0, _mm256_loadu_ps(k3 + i), a30);
            a31 = _mm256_fmadd_ps(q1, _mm256_loadu_ps(k3 + i + 8), a31);
        }
        for (; i + 8 <= dh; i += 8) {
            const __m256 q0 = _mm256_loadu_ps(q + i);
            a00 = _mm256_fmadd_ps(q0, _mm256_loadu_ps(k0 + i), a00);
            a10 = _mm256_fmadd_ps(q0, _mm256_loadu_ps(k1 + i), a10);
            a20 = _mm256_fmadd_ps(q0, _mm256_loadu_ps(k2 + i), a20);
            a30 = _mm256_fmadd_ps(q0, _mm256_loadu_ps(k3 + i), a30);
        }
        float s0 = hsum8(_mm256_add_ps(a00, a01));
        float s1 = hsum8(_mm256_add_ps(a10, a11));
        float s2 = hsum8(_mm256_add_ps(a20, a21));
        float s3 = hsum8(_mm256_add_ps(a30, a31));
        for (; i < dh; ++i) {
            s0 = std::fma(q[i], k0[i], s0);
            s1 = std::fma(q[i], k1[i], s1);
            s2 = std::fma(q[i], k2[i], s2);
            s3 = std::fma(q[i], k3[i], s3);
        }
        scores[p] = s0 * scale;
        scores[p + 1] = s1 * scale;
        scores[p + 2] = s2 * scale;
        scores[p + 3] = s3 * scale;
    }
    for (; p < n; ++p) scores[p] = dot_fma(q, krows + p * dh, dh) * scale;
}

namespace {

// Context row held in NB ymm registers across the whole key loop; per
// element this is the identical ascending-p FMA sequence n axpy calls
// perform, minus their per-key load/store round trips through memory.
template <std::size_t NB>
inline void attn_mix_reg(const float* scores, const float* vrows, float* crow, std::size_t n,
                         std::size_t dh) {
    __m256 acc[NB];
    for (std::size_t b = 0; b < NB; ++b) acc[b] = _mm256_loadu_ps(crow + 8 * b);
    for (std::size_t p = 0; p < n; ++p) {
        const __m256 s = _mm256_set1_ps(scores[p]);
        const float* v = vrows + p * dh;
        for (std::size_t b = 0; b < NB; ++b) {
            acc[b] = _mm256_fmadd_ps(s, _mm256_loadu_ps(v + 8 * b), acc[b]);
        }
    }
    for (std::size_t b = 0; b < NB; ++b) _mm256_storeu_ps(crow + 8 * b, acc[b]);
}

}  // namespace

void attn_mix_avx2(const float* scores, const float* vrows, float* crow, std::size_t n,
                   std::size_t dh) {
    if ((dh & 7) == 0 && dh >= 8 && dh <= 64) {
        switch (dh >> 3) {
            case 1: attn_mix_reg<1>(scores, vrows, crow, n, dh); return;
            case 2: attn_mix_reg<2>(scores, vrows, crow, n, dh); return;
            case 3: attn_mix_reg<3>(scores, vrows, crow, n, dh); return;
            case 4: attn_mix_reg<4>(scores, vrows, crow, n, dh); return;
            case 5: attn_mix_reg<5>(scores, vrows, crow, n, dh); return;
            case 6: attn_mix_reg<6>(scores, vrows, crow, n, dh); return;
            case 7: attn_mix_reg<7>(scores, vrows, crow, n, dh); return;
            case 8: attn_mix_reg<8>(scores, vrows, crow, n, dh); return;
            default: break;
        }
    }
    for (std::size_t p = 0; p < n; ++p) axpy_avx2(scores[p], vrows + p * dh, crow, dh);
}

float reduce_max_avx2(const float* x, std::size_t n) {
    // max is exact under any association; no ordering constraints here.
    std::size_t i = 0;
    float mx = -std::numeric_limits<float>::infinity();
    if (n >= 8) {
        __m256 vmx = _mm256_loadu_ps(x);
        for (i = 8; i + 8 <= n; i += 8) vmx = _mm256_max_ps(vmx, _mm256_loadu_ps(x + i));
        const __m128 lo = _mm256_castps256_ps128(vmx);
        const __m128 hi = _mm256_extractf128_ps(vmx, 1);
        __m128 m = _mm_max_ps(lo, hi);
        m = _mm_max_ps(m, _mm_movehl_ps(m, m));
        m = _mm_max_ss(m, _mm_shuffle_ps(m, m, 1));
        mx = _mm_cvtss_f32(m);
    }
    for (; i < n; ++i) mx = std::max(mx, x[i]);
    return mx;
}

void scale_avx2(float* x, std::size_t n, float s) {
    const __m256 sv = _mm256_set1_ps(s);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        _mm256_storeu_ps(x + i, _mm256_mul_ps(_mm256_loadu_ps(x + i), sv));
    }
    for (; i < n; ++i) x[i] *= s;
}

void layer_norm_row_avx2(const float* in, float* out, const float* gain, const float* bias,
                         std::size_t d, float eps, float* stats2) {
    // Both reductions use one fixed 8-lane tree (hsum8) plus a scalar tail,
    // so a row's statistics depend only on d.
    __m256 vsum = _mm256_setzero_ps();
    std::size_t i = 0;
    for (; i + 8 <= d; i += 8) vsum = _mm256_add_ps(vsum, _mm256_loadu_ps(in + i));
    float sum = hsum8(vsum);
    for (; i < d; ++i) sum += in[i];
    const float mean = sum / static_cast<float>(d);

    const __m256 vmean = _mm256_set1_ps(mean);
    __m256 vvar = _mm256_setzero_ps();
    for (i = 0; i + 8 <= d; i += 8) {
        const __m256 diff = _mm256_sub_ps(_mm256_loadu_ps(in + i), vmean);
        vvar = _mm256_fmadd_ps(diff, diff, vvar);
    }
    float var = hsum8(vvar);
    for (; i < d; ++i) {
        const float diff = in[i] - mean;
        var = std::fma(diff, diff, var);
    }
    var /= static_cast<float>(d);
    const float inv = 1.0f / std::sqrt(var + eps);
    if (stats2 != nullptr) {
        stats2[0] = mean;
        stats2[1] = inv;
    }

    const __m256 vinv = _mm256_set1_ps(inv);
    for (i = 0; i + 8 <= d; i += 8) {
        const __m256 xhat = _mm256_mul_ps(_mm256_sub_ps(_mm256_loadu_ps(in + i), vmean), vinv);
        _mm256_storeu_ps(out + i, _mm256_fmadd_ps(xhat, _mm256_loadu_ps(gain + i),
                                                  _mm256_loadu_ps(bias + i)));
    }
    for (; i < d; ++i) out[i] = std::fma((in[i] - mean) * inv, gain[i], bias[i]);
}

void add_bias_row_avx2(float* row, const float* bias, std::size_t d) {
    std::size_t i = 0;
    for (; i + 8 <= d; i += 8) {
        _mm256_storeu_ps(row + i, _mm256_add_ps(_mm256_loadu_ps(row + i), _mm256_loadu_ps(bias + i)));
    }
    for (; i < d; ++i) row[i] += bias[i];
}

// ---- GELU ----------------------------------------------------------------------
// gelu(x) = 0.5x(1 + tanh(u)) = x * sigmoid(2u) = x / (1 + e), with
// u = sqrt(2/pi)(x + 0.044715x^3) and e = exp(-2u). u is computed in the
// scalar gelu_scalar's operation order; only the tanh is replaced, by the
// vectorised exp below. Row tails go through the same 8-lane formula on a
// padded copy, so an element's bits never depend on its column.

namespace {

// exp over 8 lanes, within ~1 ulp: n = round(x log2 e), r = x - n ln2 (ln2
// split in two so n * hi is exact), a degree-6 polynomial for exp(r) on
// |r| <= ln2/2, then scaling by 2^n through the exponent bits. The clamp
// keeps 2^n a normal float, so large |x| saturates instead of overflowing.
inline __m256 exp8(__m256 x) {
    x = _mm256_min_ps(_mm256_max_ps(x, _mm256_set1_ps(-87.3f)), _mm256_set1_ps(88.3f));
    const __m256 n = _mm256_round_ps(_mm256_mul_ps(x, _mm256_set1_ps(1.44269504088896341f)),
                                     _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
    __m256 r = _mm256_fnmadd_ps(n, _mm256_set1_ps(0.693359375f), x);
    r = _mm256_fnmadd_ps(n, _mm256_set1_ps(-2.12194440e-4f), r);
    __m256 p = _mm256_set1_ps(1.9875691500e-4f);
    p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(1.3981999507e-3f));
    p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(8.3334519073e-3f));
    p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(4.1665795894e-2f));
    p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(1.6666665459e-1f));
    p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(5.0000001201e-1f));
    p = _mm256_add_ps(_mm256_fmadd_ps(p, _mm256_mul_ps(r, r), r), _mm256_set1_ps(1.0f));
    const __m256i bits =
        _mm256_slli_epi32(_mm256_add_epi32(_mm256_cvtps_epi32(n), _mm256_set1_epi32(127)), 23);
    return _mm256_mul_ps(p, _mm256_castsi256_ps(bits));
}

// e = exp(-2u) for the GELU argument x.
inline __m256 gelu_exp8(__m256 x) {
    const __m256 ax = _mm256_mul_ps(_mm256_set1_ps(kernels::kGeluA), x);
    const __m256 cube = _mm256_mul_ps(_mm256_mul_ps(ax, x), x);
    const __m256 u = _mm256_mul_ps(_mm256_set1_ps(kernels::kGeluC), _mm256_add_ps(x, cube));
    return exp8(_mm256_mul_ps(_mm256_set1_ps(-2.0f), u));
}

inline __m256 gelu8(__m256 x) {
    return _mm256_div_ps(x, _mm256_add_ps(_mm256_set1_ps(1.0f), gelu_exp8(x)));
}

// g * gelu'(x), with s = sigmoid(2u) = 1 / (1 + e) and 1 - s = e * s:
// gelu'(x) = s + 2x s (1 - s) du, du = sqrt(2/pi)(1 + 3 * 0.044715x^2) —
// gelu_grad_scalar's formula with 0.5(1 + t) = s and 1 - t^2 = 4s(1 - s).
inline __m256 gelu_grad_mul8(__m256 x, __m256 g) {
    const __m256 e = gelu_exp8(x);
    const __m256 s = _mm256_div_ps(_mm256_set1_ps(1.0f), _mm256_add_ps(_mm256_set1_ps(1.0f), e));
    const __m256 x2 = _mm256_mul_ps(_mm256_mul_ps(_mm256_set1_ps(3.0f * kernels::kGeluA), x), x);
    const __m256 du =
        _mm256_mul_ps(_mm256_set1_ps(kernels::kGeluC), _mm256_add_ps(_mm256_set1_ps(1.0f), x2));
    const __m256 two_xs = _mm256_mul_ps(_mm256_mul_ps(_mm256_set1_ps(2.0f), x), s);
    const __m256 grad = _mm256_fmadd_ps(_mm256_mul_ps(two_xs, _mm256_mul_ps(e, s)), du, s);
    return _mm256_mul_ps(g, grad);
}

}  // namespace

void bias_gelu_row_avx2(float* row, const float* bias, std::size_t d) {
    std::size_t i = 0;
    for (; i + 8 <= d; i += 8) {
        _mm256_storeu_ps(row + i,
                         gelu8(_mm256_add_ps(_mm256_loadu_ps(row + i), _mm256_loadu_ps(bias + i))));
    }
    if (i == d) return;
    const std::size_t rest = d - i;
    alignas(32) float buf[8] = {};
    for (std::size_t j = 0; j < rest; ++j) buf[j] = row[i + j] + bias[i + j];
    _mm256_store_ps(buf, gelu8(_mm256_load_ps(buf)));
    std::copy_n(buf, rest, row + i);
}

void bias_gelu_backward_row_avx2(const float* x, const float* bias, const float* g, float* dx,
                                 float* scratch, std::size_t d) {
    std::size_t i = 0;
    for (; i + 8 <= d; i += 8) {
        const __m256 u = _mm256_add_ps(_mm256_loadu_ps(x + i), _mm256_loadu_ps(bias + i));
        const __m256 t = gelu_grad_mul8(u, _mm256_loadu_ps(g + i));
        _mm256_storeu_ps(scratch + i, t);
        if (dx != nullptr) _mm256_storeu_ps(dx + i, _mm256_add_ps(_mm256_loadu_ps(dx + i), t));
    }
    if (i == d) return;
    const std::size_t rest = d - i;
    alignas(32) float bx[8] = {};
    alignas(32) float bg[8] = {};
    for (std::size_t j = 0; j < rest; ++j) {
        bx[j] = x[i + j] + bias[i + j];
        bg[j] = g[i + j];
    }
    _mm256_store_ps(bx, gelu_grad_mul8(_mm256_load_ps(bx), _mm256_load_ps(bg)));
    for (std::size_t j = 0; j < rest; ++j) {
        scratch[i + j] = bx[j];
        if (dx != nullptr) dx[i + j] += bx[j];
    }
}

// ---- fp16 KV-cache kernels ----------------------------------------------------
// The binary may carry F16C instructions (-mf16c is appended to this TU's
// flags when the compiler accepts it) on a CPU that lacks the feature — F16C
// is a separate CPUID bit from AVX2 — so the hardware path is gated at
// runtime too. The software fallback produces bit-identical halves (both
// round to nearest-even), so which path runs is unobservable in the encode;
// the dot fallback keeps a fixed scalar FMA chain, consistent per host.

namespace {

inline bool host_has_f16c() {
    static const bool ok = __builtin_cpu_supports("f16c");
    return ok;
}

}  // namespace

void fp16_encode_avx2(const float* src, std::uint16_t* dst, std::size_t n) {
#if defined(__F16C__)
    if (host_has_f16c()) {
        std::size_t i = 0;
        for (; i + 8 <= n; i += 8) {
            _mm_storeu_si128(
                reinterpret_cast<__m128i*>(dst + i),
                _mm256_cvtps_ph(_mm256_loadu_ps(src + i),
                                _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC));
        }
        for (; i < n; ++i) dst[i] = fp16_encode_one(src[i]);
        return;
    }
#endif
    for (std::size_t i = 0; i < n; ++i) dst[i] = fp16_encode_one(src[i]);
}

float dot_f16_avx2(const float* a, const std::uint16_t* b, std::size_t n) {
#if defined(__F16C__)
    if (host_has_f16c()) {
        const std::size_t n8 = n & ~std::size_t{7};
        __m256 acc = _mm256_setzero_ps();
        for (std::size_t i = 0; i < n8; i += 8) {
            const __m256 bv =
                _mm256_cvtph_ps(_mm_loadu_si128(reinterpret_cast<const __m128i*>(b + i)));
            acc = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), bv, acc);
        }
        float s = hsum8(acc);
        for (std::size_t t = n8; t < n; ++t) s = std::fma(a[t], fp16_decode_one(b[t]), s);
        return s;
    }
#endif
    float s = 0.0f;
    for (std::size_t i = 0; i < n; ++i) s = std::fma(a[i], fp16_decode_one(b[i]), s);
    return s;
}

void axpy_f16_avx2(float alpha, const std::uint16_t* x, float* y, std::size_t n) {
#if defined(__F16C__)
    if (host_has_f16c()) {
        const __m256 av = _mm256_set1_ps(alpha);
        std::size_t i = 0;
        for (; i + 8 <= n; i += 8) {
            const __m256 xv =
                _mm256_cvtph_ps(_mm_loadu_si128(reinterpret_cast<const __m128i*>(x + i)));
            _mm256_storeu_ps(y + i, _mm256_fmadd_ps(av, xv, _mm256_loadu_ps(y + i)));
        }
        for (; i < n; ++i) y[i] = std::fma(alpha, fp16_decode_one(x[i]), y[i]);
        return;
    }
#endif
    for (std::size_t i = 0; i < n; ++i) y[i] = std::fma(alpha, fp16_decode_one(x[i]), y[i]);
}

void attn_scores_f16_avx2(const float* q, const std::uint16_t* krows, float* scores,
                          std::size_t n, std::size_t dh, float scale) {
#if defined(__F16C__)
    if (host_has_f16c()) {
        // Four keys in flight, each chain shaped exactly like dot_f16_avx2
        // (single accumulator, 8-wide steps, hsum8, scalar widen tail).
        const std::size_t d8 = dh & ~std::size_t{7};
        std::size_t p = 0;
        for (; p + 4 <= n; p += 4) {
            const std::uint16_t* k0 = krows + p * dh;
            const std::uint16_t* k1 = k0 + dh;
            const std::uint16_t* k2 = k1 + dh;
            const std::uint16_t* k3 = k2 + dh;
            __m256 a0 = _mm256_setzero_ps();
            __m256 a1 = _mm256_setzero_ps();
            __m256 a2 = _mm256_setzero_ps();
            __m256 a3 = _mm256_setzero_ps();
            for (std::size_t i = 0; i < d8; i += 8) {
                const __m256 qv = _mm256_loadu_ps(q + i);
                a0 = _mm256_fmadd_ps(
                    qv,
                    _mm256_cvtph_ps(_mm_loadu_si128(reinterpret_cast<const __m128i*>(k0 + i))),
                    a0);
                a1 = _mm256_fmadd_ps(
                    qv,
                    _mm256_cvtph_ps(_mm_loadu_si128(reinterpret_cast<const __m128i*>(k1 + i))),
                    a1);
                a2 = _mm256_fmadd_ps(
                    qv,
                    _mm256_cvtph_ps(_mm_loadu_si128(reinterpret_cast<const __m128i*>(k2 + i))),
                    a2);
                a3 = _mm256_fmadd_ps(
                    qv,
                    _mm256_cvtph_ps(_mm_loadu_si128(reinterpret_cast<const __m128i*>(k3 + i))),
                    a3);
            }
            float s0 = hsum8(a0);
            float s1 = hsum8(a1);
            float s2 = hsum8(a2);
            float s3 = hsum8(a3);
            for (std::size_t i = d8; i < dh; ++i) {
                s0 = std::fma(q[i], fp16_decode_one(k0[i]), s0);
                s1 = std::fma(q[i], fp16_decode_one(k1[i]), s1);
                s2 = std::fma(q[i], fp16_decode_one(k2[i]), s2);
                s3 = std::fma(q[i], fp16_decode_one(k3[i]), s3);
            }
            scores[p] = s0 * scale;
            scores[p + 1] = s1 * scale;
            scores[p + 2] = s2 * scale;
            scores[p + 3] = s3 * scale;
        }
        for (; p < n; ++p) scores[p] = dot_f16_avx2(q, krows + p * dh, dh) * scale;
        return;
    }
#endif
    for (std::size_t p = 0; p < n; ++p) scores[p] = dot_f16_avx2(q, krows + p * dh, dh) * scale;
}

#if defined(__F16C__)
namespace {

// f16 counterpart of attn_mix_reg: same register-resident ascending-p FMA
// sequence, with each V block widened exactly as axpy_f16_avx2 widens it.
template <std::size_t NB>
inline void attn_mix_f16_reg(const float* scores, const std::uint16_t* vrows, float* crow,
                             std::size_t n, std::size_t dh) {
    __m256 acc[NB];
    for (std::size_t b = 0; b < NB; ++b) acc[b] = _mm256_loadu_ps(crow + 8 * b);
    for (std::size_t p = 0; p < n; ++p) {
        const __m256 s = _mm256_set1_ps(scores[p]);
        const std::uint16_t* v = vrows + p * dh;
        for (std::size_t b = 0; b < NB; ++b) {
            const __m256 xv = _mm256_cvtph_ps(
                _mm_loadu_si128(reinterpret_cast<const __m128i*>(v + 8 * b)));
            acc[b] = _mm256_fmadd_ps(s, xv, acc[b]);
        }
    }
    for (std::size_t b = 0; b < NB; ++b) _mm256_storeu_ps(crow + 8 * b, acc[b]);
}

}  // namespace
#endif

void attn_mix_f16_avx2(const float* scores, const std::uint16_t* vrows, float* crow,
                       std::size_t n, std::size_t dh) {
#if defined(__F16C__)
    if (host_has_f16c() && (dh & 7) == 0 && dh >= 8 && dh <= 64) {
        switch (dh >> 3) {
            case 1: attn_mix_f16_reg<1>(scores, vrows, crow, n, dh); return;
            case 2: attn_mix_f16_reg<2>(scores, vrows, crow, n, dh); return;
            case 3: attn_mix_f16_reg<3>(scores, vrows, crow, n, dh); return;
            case 4: attn_mix_f16_reg<4>(scores, vrows, crow, n, dh); return;
            case 5: attn_mix_f16_reg<5>(scores, vrows, crow, n, dh); return;
            case 6: attn_mix_f16_reg<6>(scores, vrows, crow, n, dh); return;
            case 7: attn_mix_f16_reg<7>(scores, vrows, crow, n, dh); return;
            case 8: attn_mix_f16_reg<8>(scores, vrows, crow, n, dh); return;
            default: break;
        }
    }
#endif
    for (std::size_t p = 0; p < n; ++p) axpy_f16_avx2(scores[p], vrows + p * dh, crow, dh);
}

void softmax_backward_row_avx2(const float* y, const float* g, float* dx, std::size_t n) {
    const float dot = dot_fma(y, g, n);
    const __m256 vdot = _mm256_set1_ps(dot);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256 diff = _mm256_sub_ps(_mm256_loadu_ps(g + i), vdot);
        _mm256_storeu_ps(dx + i,
                         _mm256_fmadd_ps(_mm256_loadu_ps(y + i), diff, _mm256_loadu_ps(dx + i)));
    }
    for (; i < n; ++i) dx[i] = std::fma(y[i], g[i] - dot, dx[i]);
}

void layer_norm_backward_row_avx2(const float* x, const float* gain, const float* g, float mean,
                                  float inv, float* dx, std::size_t d) {
    const __m256 vmean = _mm256_set1_ps(mean);
    const __m256 vinv = _mm256_set1_ps(inv);
    __m256 vsum_gy = _mm256_setzero_ps();
    __m256 vsum_gyx = _mm256_setzero_ps();
    std::size_t i = 0;
    for (; i + 8 <= d; i += 8) {
        const __m256 gy = _mm256_mul_ps(_mm256_loadu_ps(g + i), _mm256_loadu_ps(gain + i));
        const __m256 xhat = _mm256_mul_ps(_mm256_sub_ps(_mm256_loadu_ps(x + i), vmean), vinv);
        vsum_gy = _mm256_add_ps(vsum_gy, gy);
        vsum_gyx = _mm256_fmadd_ps(gy, xhat, vsum_gyx);
    }
    float sum_gy = hsum8(vsum_gy);
    float sum_gyx = hsum8(vsum_gyx);
    for (; i < d; ++i) {
        const float gy = g[i] * gain[i];
        const float xhat = (x[i] - mean) * inv;
        sum_gy += gy;
        sum_gyx = std::fma(gy, xhat, sum_gyx);
    }
    const float dn = static_cast<float>(d);
    const float scl = inv / dn;
    const __m256 vdn = _mm256_set1_ps(dn);
    const __m256 vsgy = _mm256_set1_ps(sum_gy);
    const __m256 vsgyx = _mm256_set1_ps(sum_gyx);
    const __m256 vscl = _mm256_set1_ps(scl);
    for (i = 0; i + 8 <= d; i += 8) {
        const __m256 gy = _mm256_mul_ps(_mm256_loadu_ps(g + i), _mm256_loadu_ps(gain + i));
        const __m256 xhat = _mm256_mul_ps(_mm256_sub_ps(_mm256_loadu_ps(x + i), vmean), vinv);
        // d*gy - sum_gy - xhat*sum_gy_xhat
        const __m256 core =
            _mm256_fnmadd_ps(xhat, vsgyx, _mm256_fmsub_ps(vdn, gy, vsgy));
        _mm256_storeu_ps(dx + i, _mm256_fmadd_ps(vscl, core, _mm256_loadu_ps(dx + i)));
    }
    for (; i < d; ++i) {
        const float gy = g[i] * gain[i];
        const float xhat = (x[i] - mean) * inv;
        const float core = std::fma(-xhat, sum_gyx, std::fma(dn, gy, -sum_gy));
        dx[i] = std::fma(scl, core, dx[i]);
    }
}

namespace {

inline double hsum4d(__m256d v) {
    const __m128d lo = _mm256_castpd256_pd128(v);
    const __m128d hi = _mm256_extractf128_pd(v, 1);
    __m128d s = _mm_add_pd(lo, hi);
    s = _mm_add_sd(s, _mm_unpackhi_pd(s, s));
    return _mm_cvtsd_f64(s);
}

}  // namespace

double sqnorm_avx2(const float* x, std::size_t n) {
    // Two 4-double accumulators fed by cvtps_pd halves of each 8-float block;
    // combined with one fixed tree, so the result depends only on n. The
    // float*float products are exact in double (24-bit mantissas), so fma
    // vs mul+add is immaterial here.
    __m256d acc0 = _mm256_setzero_pd();
    __m256d acc1 = _mm256_setzero_pd();
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256 v = _mm256_loadu_ps(x + i);
        const __m256d lo = _mm256_cvtps_pd(_mm256_castps256_ps128(v));
        const __m256d hi = _mm256_cvtps_pd(_mm256_extractf128_ps(v, 1));
        acc0 = _mm256_fmadd_pd(lo, lo, acc0);
        acc1 = _mm256_fmadd_pd(hi, hi, acc1);
    }
    double s = hsum4d(_mm256_add_pd(acc0, acc1));
    for (; i < n; ++i) s += static_cast<double>(x[i]) * x[i];
    return s;
}

void adam_update_avx2(float* w, const float* g, float* m, float* v, std::size_t n, float lr,
                      float beta1, float beta2, float eps, float weight_decay, float bc1,
                      float bc2, float gscale) {
    const __m256 vb1 = _mm256_set1_ps(beta1);
    const __m256 vomb1 = _mm256_set1_ps(1.0f - beta1);
    const __m256 vb2 = _mm256_set1_ps(beta2);
    const __m256 vomb2 = _mm256_set1_ps(1.0f - beta2);
    const __m256 vgs = _mm256_set1_ps(gscale);
    const __m256 vbc1 = _mm256_set1_ps(bc1);
    const __m256 vbc2 = _mm256_set1_ps(bc2);
    const __m256 veps = _mm256_set1_ps(eps);
    const __m256 vwd = _mm256_set1_ps(weight_decay);
    const __m256 vlr = _mm256_set1_ps(lr);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256 gp = _mm256_mul_ps(_mm256_loadu_ps(g + i), vgs);
        const __m256 mv = _mm256_fmadd_ps(vb1, _mm256_loadu_ps(m + i), _mm256_mul_ps(vomb1, gp));
        const __m256 vv = _mm256_fmadd_ps(vb2, _mm256_loadu_ps(v + i),
                                          _mm256_mul_ps(vomb2, _mm256_mul_ps(gp, gp)));
        _mm256_storeu_ps(m + i, mv);
        _mm256_storeu_ps(v + i, vv);
        const __m256 mhat = _mm256_div_ps(mv, vbc1);
        const __m256 vhat = _mm256_div_ps(vv, vbc2);
        const __m256 denom = _mm256_add_ps(_mm256_sqrt_ps(vhat), veps);
        const __m256 wv = _mm256_loadu_ps(w + i);
        const __m256 upd = _mm256_fmadd_ps(vwd, wv, _mm256_div_ps(mhat, denom));
        _mm256_storeu_ps(w + i, _mm256_fnmadd_ps(vlr, upd, wv));
    }
    for (; i < n; ++i) {
        const float gp = g[i] * gscale;
        m[i] = std::fma(beta1, m[i], (1.0f - beta1) * gp);
        v[i] = std::fma(beta2, v[i], (1.0f - beta2) * gp * gp);
        const float mhat = m[i] / bc1;
        const float vhat = v[i] / bc2;
        const float upd = std::fma(weight_decay, w[i], mhat / (std::sqrt(vhat) + eps));
        w[i] = std::fma(-lr, upd, w[i]);
    }
}

}  // namespace cpt::nn::detail

#else  // !(__AVX2__ && __FMA__)

namespace cpt::nn::detail {

namespace {
[[noreturn]] void missing() { CPT_CHECK(false, "AVX2 kernels were not compiled into this binary"); }
}  // namespace

float dot_avx2(const float*, const float*, std::size_t) { missing(); }
void axpy_avx2(float, const float*, float*, std::size_t) { missing(); }
void attn_scores_avx2(const float*, const float*, float*, std::size_t, std::size_t, float) {
    missing();
}
void attn_mix_avx2(const float*, const float*, float*, std::size_t, std::size_t) { missing(); }
void attn_scores_f16_avx2(const float*, const std::uint16_t*, float*, std::size_t, std::size_t,
                          float) {
    missing();
}
void attn_mix_f16_avx2(const float*, const std::uint16_t*, float*, std::size_t, std::size_t) {
    missing();
}
float reduce_max_avx2(const float*, std::size_t) { missing(); }
void scale_avx2(float*, std::size_t, float) { missing(); }
void layer_norm_row_avx2(const float*, float*, const float*, const float*, std::size_t, float,
                         float*) {
    missing();
}
void bias_gelu_row_avx2(float*, const float*, std::size_t) { missing(); }
void bias_gelu_backward_row_avx2(const float*, const float*, const float*, float*, float*,
                                 std::size_t) {
    missing();
}
void add_bias_row_avx2(float*, const float*, std::size_t) { missing(); }
void fp16_encode_avx2(const float*, std::uint16_t*, std::size_t) { missing(); }
float dot_f16_avx2(const float*, const std::uint16_t*, std::size_t) { missing(); }
void axpy_f16_avx2(float, const std::uint16_t*, float*, std::size_t) { missing(); }
void softmax_backward_row_avx2(const float*, const float*, float*, std::size_t) { missing(); }
void layer_norm_backward_row_avx2(const float*, const float*, const float*, float, float, float*,
                                  std::size_t) {
    missing();
}
double sqnorm_avx2(const float*, std::size_t) { missing(); }
void adam_update_avx2(float*, const float*, float*, float*, std::size_t, float, float, float,
                      float, float, float, float, float) {
    missing();
}

}  // namespace cpt::nn::detail

#endif
