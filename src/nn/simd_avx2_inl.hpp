// AVX2+FMA inline primitives shared by gemm_avx2.cpp, kernels_avx2.cpp and
// attention_avx2.cpp — the translation units built with -mavx2 -mfma. Do not
// include this header anywhere else: it requires the AVX2 target to compile.
//
// hsum8/dot_fma fix the reduction tree, so every caller that sums a register the
// same way produces identical bits for identical inputs — the within-tier
// determinism contract depends on this.
#pragma once

#if !defined(__AVX2__) || !defined(__FMA__)
#error "simd_avx2_inl.hpp must only be included from TUs compiled with -mavx2 -mfma"
#endif

#include <immintrin.h>

#include <cmath>
#include <cstddef>

namespace cpt::nn::detail {

// Fixed-order horizontal sum: pairs lane i with lane i+4, then a two-level
// binary tree. One canonical tree per 8-lane register everywhere.
inline float hsum8(__m256 v) {
    const __m128 lo = _mm256_castps256_ps128(v);
    const __m128 hi = _mm256_extractf128_ps(v, 1);
    __m128 s = _mm_add_ps(lo, hi);
    s = _mm_add_ps(s, _mm_movehl_ps(s, s));
    s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 1));
    return _mm_cvtss_f32(s);
}

// Dot product along a contiguous extent: two 8-lane FMA accumulators over
// 16-element steps, an 8-element step, one fixed-order horizontal sum, then
// std::fma for the scalar tail (same rounding as the vector lanes). Its one
// caller is the softmax backward row; decode attention has its own
// tier-identical order (attention_avx2.cpp). The GEMMs reduce no register:
// each of their lanes is one output element's FMA chain.
inline float dot_fma(const float* a, const float* b, std::size_t n) {
    __m256 acc0 = _mm256_setzero_ps();
    __m256 acc1 = _mm256_setzero_ps();
    std::size_t i = 0;
    for (; i + 16 <= n; i += 16) {
        acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i), acc0);
        acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i + 8), _mm256_loadu_ps(b + i + 8), acc1);
    }
    for (; i + 8 <= n; i += 8) {
        acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i), acc0);
    }
    float s = hsum8(_mm256_add_ps(acc0, acc1));
    for (; i < n; ++i) s = std::fma(a[i], b[i], s);
    return s;
}

}  // namespace cpt::nn::detail
