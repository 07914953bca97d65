// The 8-lane instance of the GEMM register tiles (gemm_tiles_inl.hpp), the
// avx2 tier's engine for every product when the host lacks AVX-512F. Built
// with -mavx2 -mfma (see src/nn/CMakeLists); when the compiler lacks those
// flags the entry point degrades to a CPT_CHECK failure — the dispatcher in
// gemm.cpp never selects this tier unless util::detect_simd_tier() reports
// it available.
#include "simd_detail.hpp"

#include "util/check.hpp"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include "gemm_tiles_inl.hpp"

namespace cpt::nn::detail {

namespace {

struct Vec256 {
    using Reg = __m256;
    using Mask = __m256i;
    static constexpr std::size_t kLanes = 8;
    // 6 x 2 accumulators + two panel vectors + one broadcast: 15 of the 16
    // ymm registers.
    static constexpr std::size_t kRows = 6;
    static constexpr std::size_t kVecs = 2;
    static Reg zero() { return _mm256_setzero_ps(); }
    static Reg load(const float* p) { return _mm256_loadu_ps(p); }
    static Reg bcast(const float* p) { return _mm256_broadcast_ss(p); }
    static Reg fma(Reg a, Reg b, Reg c) { return _mm256_fmadd_ps(a, b, c); }
    static Reg add(Reg a, Reg b) { return _mm256_add_ps(a, b); }
    static void store(float* p, Reg v) { _mm256_storeu_ps(p, v); }
    static Mask mask(std::size_t lanes) {
        return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(lanes)),
                                  _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
    }
    static Reg load_masked(const float* p, Mask m) { return _mm256_maskload_ps(p, m); }
    static void store_masked(float* p, Reg v, Mask m) { _mm256_maskstore_ps(p, m, v); }
    using Index = __m256i;
    static Index row_offsets(std::size_t stride) {
        return _mm256_mullo_epi32(_mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
                                  _mm256_set1_epi32(static_cast<int>(stride)));
    }
    static Reg gather(const float* p, Index idx) { return _mm256_i32gather_ps(p, idx, 4); }
};

}  // namespace

void gemm_panel_avx2(const float* a, std::size_t rs, std::size_t ks, const float* panel,
                     std::size_t ld, float* c, std::size_t m_dim, std::size_t k_dim,
                     std::size_t n_dim) {
    panel_product<Vec256>(a, rs, ks, panel, ld, c, m_dim, k_dim, n_dim);
}

}  // namespace cpt::nn::detail

#else  // !(__AVX2__ && __FMA__)

namespace cpt::nn::detail {

void gemm_panel_avx2(const float*, std::size_t, std::size_t, const float*, std::size_t, float*,
                     std::size_t, std::size_t, std::size_t) {
    CPT_CHECK(false, "AVX2 kernels were not compiled into this binary");
}

}  // namespace cpt::nn::detail

#endif
