// AVX2+FMA elementwise kernel tier (LayerNorm rows, GELU, the backward and
// optimizer kernels). Built with -mavx2 -mfma; see
// gemm_avx2.cpp for the compile-gate and determinism conventions shared by the
// AVX2 translation units. Softmax and attention live in attention_avx2.cpp.
#include "simd_detail.hpp"

#include "kernels.hpp"
#include "util/check.hpp"

#if defined(__AVX2__) && defined(__FMA__)

#include "simd_avx2_inl.hpp"

#include <algorithm>
#include <cmath>

namespace cpt::nn::detail {

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
