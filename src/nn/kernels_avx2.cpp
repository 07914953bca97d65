// The avx2 tier of the non-GEMM kernels: the one body of kernels_inl.hpp over
// AVX2+FMA registers. Built with -mavx2 -mfma -ffp-contract=off (see
// src/nn/CMakeLists.txt), so the only fused multiply-adds are the body's
// own; when the compiler lacks those flags kernels_avx2() degrades to a
// CPT_CHECK failure, and the dispatcher in kernels.cpp never selects this
// tier unless util::detect_simd_tier() reports it available.
#include "simd_detail.hpp"

#include "util/check.hpp"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include "kernels_inl.hpp"

namespace cpt::nn::detail {

namespace {

struct Avx2Lanes {
    using Reg = __m256;
    using Mask = __m256i;
    using IReg = __m256i;
    using DReg = __m256d;
    static Reg zero() { return _mm256_setzero_ps(); }
    static Reg set1(float x) { return _mm256_set1_ps(x); }
    static Reg load(const float* p) { return _mm256_loadu_ps(p); }
    static void store(float* p, Reg v) { _mm256_storeu_ps(p, v); }
    static Mask mask(std::size_t count) {
        return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(count)),
                                  _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
    }
    static Reg load_masked(const float* p, Mask m) { return _mm256_maskload_ps(p, m); }
    static void store_masked(float* p, Reg v, Mask m) { _mm256_maskstore_ps(p, m, v); }
    static Reg keep(Mask m, Reg v) { return _mm256_and_ps(v, _mm256_castsi256_ps(m)); }
    static Reg drop(Mask m, Reg v) { return _mm256_andnot_ps(_mm256_castsi256_ps(m), v); }
    static Reg blend(Reg a, Reg b, Mask m) {
        return _mm256_blendv_ps(a, b, _mm256_castsi256_ps(m));
    }
    static Reg add(Reg a, Reg b) { return _mm256_add_ps(a, b); }
    static Reg sub(Reg a, Reg b) { return _mm256_sub_ps(a, b); }
    static Reg mul(Reg a, Reg b) { return _mm256_mul_ps(a, b); }
    static Reg div(Reg a, Reg b) { return _mm256_div_ps(a, b); }
    static Reg sqrt(Reg a) { return _mm256_sqrt_ps(a); }
    static Reg fma(Reg a, Reg b, Reg c) { return _mm256_fmadd_ps(a, b, c); }
    static Reg fnma(Reg a, Reg b, Reg c) { return _mm256_fnmadd_ps(a, b, c); }
    static Reg fms(Reg a, Reg b, Reg c) { return _mm256_fmsub_ps(a, b, c); }
    static Reg min(Reg a, Reg b) { return _mm256_min_ps(a, b); }
    static Reg max(Reg a, Reg b) { return _mm256_max_ps(a, b); }
    static Mask lt(Reg a, Reg b) { return _mm256_castps_si256(_mm256_cmp_ps(a, b, _CMP_LT_OQ)); }
    static Reg round(Reg a) {
        return _mm256_round_ps(a, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
    }
    static IReg to_int(Reg a) { return _mm256_cvtps_epi32(a); }
    static IReg bits_minus(Reg a, Reg b) {
        return _mm256_sub_epi32(_mm256_castps_si256(a), _mm256_castps_si256(b));
    }
    static Reg pow2(IReg n) {
        const IReg biased = _mm256_add_epi32(n, _mm256_set1_epi32(127));
        return _mm256_castsi256_ps(_mm256_slli_epi32(biased, 23));
    }
    static float hsum(Reg v) {
        const __m128 lo = _mm256_castps256_ps128(v);
        const __m128 hi = _mm256_extractf128_ps(v, 1);
        __m128 s = _mm_add_ps(lo, hi);
        s = _mm_add_ps(s, _mm_movehl_ps(s, s));
        s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 1));
        return _mm_cvtss_f32(s);
    }
    static float hmax(Reg v) {
        __m128 m = _mm_max_ps(_mm256_castps256_ps128(v), _mm256_extractf128_ps(v, 1));
        m = _mm_max_ps(m, _mm_movehl_ps(m, m));
        m = _mm_max_ss(m, _mm_shuffle_ps(m, m, 1));
        return _mm_cvtss_f32(m);
    }
    static Reg sum_keys(const Reg* acc) {
        const __m256 u0 =
            _mm256_hadd_ps(_mm256_hadd_ps(acc[0], acc[1]), _mm256_hadd_ps(acc[2], acc[3]));
        const __m256 u1 =
            _mm256_hadd_ps(_mm256_hadd_ps(acc[4], acc[5]), _mm256_hadd_ps(acc[6], acc[7]));
        return _mm256_add_ps(_mm256_permute2f128_ps(u0, u1, 0x20),
                             _mm256_permute2f128_ps(u0, u1, 0x31));
    }
    static DReg dzero() { return _mm256_setzero_pd(); }
    static DReg widen_lo(Reg v) { return _mm256_cvtps_pd(_mm256_castps256_ps128(v)); }
    static DReg widen_hi(Reg v) { return _mm256_cvtps_pd(_mm256_extractf128_ps(v, 1)); }
    static DReg dadd(DReg a, DReg b) { return _mm256_add_pd(a, b); }
    static DReg dfma(DReg a, DReg b, DReg c) { return _mm256_fmadd_pd(a, b, c); }
    static double dhsum(DReg v) {
        __m128d s = _mm_add_pd(_mm256_castpd256_pd128(v), _mm256_extractf128_pd(v, 1));
        s = _mm_add_sd(s, _mm_unpackhi_pd(s, s));
        return _mm_cvtsd_f64(s);
    }
};

}  // namespace

const KernelSet& kernels_avx2() {
    static constexpr KernelSet kSet = kernel_set<Avx2Lanes>();
    return kSet;
}

}  // namespace cpt::nn::detail

#else  // !(__AVX2__ && __FMA__)

namespace cpt::nn::detail {

const KernelSet& kernels_avx2() {
    CPT_CHECK(false, "AVX2 kernels were not compiled into this binary");
}

}  // namespace cpt::nn::detail

#endif
