// The 16-lane GEMM tiles: the register tiles of gemm_tiles_inl.hpp over
// 512-bit registers. Built with -mavx2 -mfma -mavx512f (src/nn/CMakeLists);
// when the compiler lacks -mavx512f the entry point degrades to a CPT_CHECK
// failure. gemm.cpp reaches it only when util::decode_lanes reports 16, i.e.
// on the avx2 tier of a host whose CPU and OS support AVX-512F.
//
// Not a tier of its own: every lane runs the one FMA chain per element that
// the 8-lane tiles run, so the bytes equal gemm_panel_avx2's. Besides
// the entry point this TU defines nothing with external linkage (the tile
// template is internal), so no AVX-512 instruction can reach a function that
// another TU links.
#include "simd_detail.hpp"

#if defined(__AVX512F__) && defined(__FMA__)

#include <immintrin.h>

#include "gemm_tiles_inl.hpp"

namespace cpt::nn::detail {

namespace {

struct Vec512 {
    using Reg = __m512;
    using Mask = __mmask16;
    static constexpr std::size_t kLanes = 16;
    // 6 x 4 accumulators + four panel vectors + one broadcast: 29 of the 32
    // zmm registers.
    static constexpr std::size_t kRows = 6;
    static constexpr std::size_t kVecs = 4;
    static Reg zero() { return _mm512_setzero_ps(); }
    static Reg load(const float* p) { return _mm512_loadu_ps(p); }
    static Reg bcast(const float* p) { return _mm512_set1_ps(*p); }
    static Reg fma(Reg a, Reg b, Reg c) { return _mm512_fmadd_ps(a, b, c); }
    static Reg add(Reg a, Reg b) { return _mm512_add_ps(a, b); }
    static void store(float* p, Reg v) { _mm512_storeu_ps(p, v); }
    static Mask mask(std::size_t lanes) {
        return static_cast<Mask>((1u << lanes) - 1u);
    }
    static Reg load_masked(const float* p, Mask m) { return _mm512_maskz_loadu_ps(m, p); }
    static void store_masked(float* p, Reg v, Mask m) { _mm512_mask_storeu_ps(p, m, v); }
    using Index = __m512i;
    static Index row_offsets(std::size_t stride) {
        return _mm512_mullo_epi32(
            _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15),
            _mm512_set1_epi32(static_cast<int>(stride)));
    }
    // The all-lanes mask form: GCC 12's plain _mm512_i32gather_ps reads an
    // uninitialised source register (-Wmaybe-uninitialized).
    static Reg gather(const float* p, Index idx) {
        return _mm512_mask_i32gather_ps(_mm512_setzero_ps(), 0xffff, idx, p, 4);
    }
};

}  // namespace

void gemm_panel_avx512(const float* a, std::size_t rs, std::size_t ks, const float* panel,
                       std::size_t ld, float* c, std::size_t m_dim, std::size_t k_dim,
                       std::size_t n_dim) {
    panel_product<Vec512>(a, rs, ks, panel, ld, c, m_dim, k_dim, n_dim);
}

}  // namespace cpt::nn::detail

#else  // !(__AVX512F__ && __FMA__)

#include "util/check.hpp"

namespace cpt::nn::detail {

void gemm_panel_avx512(const float*, std::size_t, std::size_t, const float*, std::size_t, float*,
                       std::size_t, std::size_t, std::size_t) {
    CPT_CHECK(false, "AVX-512 GEMM tiles were not compiled into this binary");
}

}  // namespace cpt::nn::detail

#endif
