// AVX2+FMA GEMM/GEMV tier. Built with -mavx2 -mfma (see src/nn/CMakeLists);
// when the compiler lacks those flags every entry point degrades to a
// CPT_CHECK failure — the dispatcher in gemm.cpp never selects this tier
// unless util::detect_simd_tier() reports it available.
//
// Accumulation contract (same as gemm.cpp): every C element is one dot
// product with a fixed operation order depending only on (element index,
// shape) — a single ascending-k FMA chain per lane, added to C once. Every
// kernel runs on its caller's thread. Scalar edge paths use std::fma to round
// exactly like the vector lanes.
#include "simd_detail.hpp"

#include "util/check.hpp"

#if defined(__AVX2__) && defined(__FMA__)

#include "gemm_decode_inl.hpp"
#include "simd_avx2_inl.hpp"

#include <algorithm>
#include <vector>

namespace cpt::nn::detail {

namespace {

constexpr std::size_t kMr = 4;    // A rows per register tile
constexpr std::size_t kNr = 16;   // C columns per register tile (2 ymm)
constexpr std::size_t kNc = 256;  // B panel width kept cache-resident

// ---- NN / TN broadcast micro-kernels -----------------------------------------
// Per C element: acc = fma(a, b, acc) in ascending k, one accumulator. The
// only difference between NN and TN is how A is indexed, so the micro-kernels
// take a stride pair (row_stride, k_stride): NN reads a[i*lda + k], TN reads
// a[k*lda + i].

template <bool kATransposed>
inline float a_at(const float* a, std::size_t lda, std::size_t i, std::size_t k) {
    return kATransposed ? a[k * lda + i] : a[i * lda + k];
}

template <bool kATransposed>
void micro_bcast_fixed(const float* a, std::size_t lda, const float* b, std::size_t ldb, float* c,
                       std::size_t ldc, std::size_t k_dim) {
    __m256 acc[kMr][2] = {};
    for (std::size_t k = 0; k < k_dim; ++k) {
        const float* brow = b + k * ldb;
        const __m256 b0 = _mm256_loadu_ps(brow);
        const __m256 b1 = _mm256_loadu_ps(brow + 8);
        for (std::size_t i = 0; i < kMr; ++i) {
            const __m256 av = _mm256_set1_ps(a_at<kATransposed>(a, lda, i, k));
            acc[i][0] = _mm256_fmadd_ps(av, b0, acc[i][0]);
            acc[i][1] = _mm256_fmadd_ps(av, b1, acc[i][1]);
        }
    }
    for (std::size_t i = 0; i < kMr; ++i) {
        float* crow = c + i * ldc;
        _mm256_storeu_ps(crow, _mm256_add_ps(_mm256_loadu_ps(crow), acc[i][0]));
        _mm256_storeu_ps(crow + 8, _mm256_add_ps(_mm256_loadu_ps(crow + 8), acc[i][1]));
    }
}

template <bool kATransposed>
void micro_bcast_edge(const float* a, std::size_t lda, const float* b, std::size_t ldb, float* c,
                      std::size_t ldc, std::size_t k_dim, std::size_t mr, std::size_t nr) {
    float acc[kMr][kNr] = {};
    for (std::size_t k = 0; k < k_dim; ++k) {
        const float* brow = b + k * ldb;
        for (std::size_t i = 0; i < mr; ++i) {
            const float av = a_at<kATransposed>(a, lda, i, k);
            for (std::size_t j = 0; j < nr; ++j) acc[i][j] = std::fma(av, brow[j], acc[i][j]);
        }
    }
    for (std::size_t i = 0; i < mr; ++i) {
        for (std::size_t j = 0; j < nr; ++j) c[i * ldc + j] += acc[i][j];
    }
}

template <bool kATransposed>
void gemm_bcast(const float* a, const float* b, float* c, std::size_t m_dim, std::size_t k_dim,
                std::size_t n_dim) {
    const std::size_t lda = kATransposed ? m_dim : k_dim;
    for (std::size_t n0 = 0; n0 < n_dim; n0 += kNc) {
        const std::size_t nb = std::min(kNc, n_dim - n0);
        for (std::size_t m0 = 0; m0 < m_dim; m0 += kMr) {
            const std::size_t mr = std::min(kMr, m_dim - m0);
            const float* atile = kATransposed ? a + m0 : a + m0 * lda;
            float* crow = c + m0 * n_dim + n0;
            std::size_t j0 = 0;
            if (mr == kMr) {
                for (; j0 + kNr <= nb; j0 += kNr) {
                    micro_bcast_fixed<kATransposed>(atile, lda, b + n0 + j0, n_dim, crow + j0,
                                                    n_dim, k_dim);
                }
            }
            for (; j0 < nb; j0 += kNr) {
                micro_bcast_edge<kATransposed>(atile, lda, b + n0 + j0, n_dim, crow + j0, n_dim,
                                               k_dim, mr, std::min(kNr, nb - j0));
            }
        }
    }
}

// ---- NT decode over a packed panel (gemm_decode_inl.hpp), 8 lanes ---------

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
    static Index row_offsets(std::size_t k_dim) {
        return _mm256_mullo_epi32(_mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
                                  _mm256_set1_epi32(static_cast<int>(k_dim)));
    }
    static Reg gather(const float* p, Index idx) { return _mm256_i32gather_ps(p, idx, 4); }
};

}  // namespace

void gemm_nn_avx2(const float* a, const float* b, float* c, std::size_t m_dim, std::size_t k_dim,
                  std::size_t n_dim) {
    gemm_bcast<false>(a, b, c, m_dim, k_dim, n_dim);
}

void gemm_tn_avx2(const float* a, const float* b, float* c, std::size_t m_dim, std::size_t k_dim,
                  std::size_t n_dim) {
    gemm_bcast<true>(a, b, c, m_dim, k_dim, n_dim);
}

void gemm_nt_decode_avx2(const float* a, const float* panel, std::size_t stride, float* c,
                         std::size_t m_dim, std::size_t k_dim, std::size_t n_dim) {
    decode_panel<Vec256>(a, panel, stride, c, m_dim, k_dim, n_dim);
}

void gemm_nt_avx2(const float* a, const float* b, float* c, std::size_t m_dim, std::size_t k_dim,
                  std::size_t n_dim) {
    // Dot-style NT kernels pay a horizontal reduction per output element — at
    // training k (64–256) that is ~a third of the work. Instead pack each
    // kNc-wide B panel transposed into [k x nb] and reuse the broadcast
    // micro-kernels: no reductions, and the per-element chain (one FMA per
    // ascending k) is the same as the NN path. The pack buffer is
    // thread_local and reused across calls. gemm_nt_decode runs the same
    // chain over a panel packed once per decoder (DecodePanel), since a
    // per-call pack would cost as much as a handful of decode rows.
    static thread_local std::vector<float> bt;
    for (std::size_t n0 = 0; n0 < n_dim; n0 += kNc) {
        const std::size_t nb = std::min(kNc, n_dim - n0);
        // Pad the packed panel's leading dimension so the micro-kernel's
        // k-walk stride is not a power of two: at ldbt = 256 floats (1 KiB)
        // consecutive k rows alias to only 4 L1 sets and the tile walk
        // thrashes the cache (measured 6-9x slowdown at m <= 16). Two ymm
        // lanes of padding advance the set index by 17 per row instead.
        const std::size_t ldbt = nb + 16;
        bt.resize(k_dim * ldbt);
        float* btp = bt.data();
        for (std::size_t j = 0; j < nb; ++j) {
            const float* brow = b + (n0 + j) * k_dim;
            for (std::size_t k = 0; k < k_dim; ++k) btp[k * ldbt + j] = brow[k];
        }
        for (std::size_t m0 = 0; m0 < m_dim; m0 += kMr) {
            const std::size_t mr = std::min(kMr, m_dim - m0);
            const float* atile = a + m0 * k_dim;
            float* crow = c + m0 * n_dim + n0;
            std::size_t j0 = 0;
            if (mr == kMr) {
                for (; j0 + kNr <= nb; j0 += kNr) {
                    micro_bcast_fixed<false>(atile, k_dim, btp + j0, ldbt, crow + j0, n_dim, k_dim);
                }
            }
            for (; j0 < nb; j0 += kNr) {
                micro_bcast_edge<false>(atile, k_dim, btp + j0, ldbt, crow + j0, n_dim, k_dim,
                                        mr, std::min(kNr, nb - j0));
            }
        }
    }
}

void gemv_nn_avx2(const float* a, const float* b, float* c, std::size_t k_dim, std::size_t n_dim) {
    if (n_dim > 512) {
        // Wide rows: the j-tile walk below strides B by n*4 bytes — a full page
        // at n >= 1024, so every load misses unprefetched. Stream B rows
        // sequentially into an L1-resident accumulator chunk instead.
        constexpr std::size_t kChunk = 1024;
        alignas(32) float acc[kChunk];
        for (std::size_t j0 = 0; j0 < n_dim; j0 += kChunk) {
            const std::size_t w = std::min(kChunk, n_dim - j0);
            std::fill_n(acc, w, 0.0f);
            for (std::size_t k = 0; k < k_dim; ++k) {
                const __m256 av = _mm256_set1_ps(a[k]);
                const float* brow = b + k * n_dim + j0;
                std::size_t j = 0;
                for (; j + 32 <= w; j += 32) {
                    for (std::size_t u = 0; u < 4; ++u) {
                        float* aj = acc + j + 8 * u;
                        _mm256_store_ps(
                            aj, _mm256_fmadd_ps(av, _mm256_loadu_ps(brow + j + 8 * u),
                                                _mm256_load_ps(aj)));
                    }
                }
                for (; j < w; ++j) acc[j] = std::fma(a[k], brow[j], acc[j]);
            }
            float* cj = c + j0;
            for (std::size_t j = 0; j < w; ++j) cj[j] += acc[j];
        }
        return;
    }
    std::size_t j0 = 0;
    for (; j0 + kNr <= n_dim; j0 += kNr) {
        __m256 acc0 = _mm256_setzero_ps();
        __m256 acc1 = _mm256_setzero_ps();
        for (std::size_t k = 0; k < k_dim; ++k) {
            const __m256 av = _mm256_set1_ps(a[k]);
            const float* brow = b + k * n_dim + j0;
            acc0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(brow), acc0);
            acc1 = _mm256_fmadd_ps(av, _mm256_loadu_ps(brow + 8), acc1);
        }
        _mm256_storeu_ps(c + j0, _mm256_add_ps(_mm256_loadu_ps(c + j0), acc0));
        _mm256_storeu_ps(c + j0 + 8, _mm256_add_ps(_mm256_loadu_ps(c + j0 + 8), acc1));
    }
    for (; j0 < n_dim; ++j0) {
        float acc = 0.0f;
        for (std::size_t k = 0; k < k_dim; ++k) acc = std::fma(a[k], b[k * n_dim + j0], acc);
        c[j0] += acc;
    }
}

}  // namespace cpt::nn::detail

#else  // !(__AVX2__ && __FMA__)

namespace cpt::nn::detail {

namespace {
[[noreturn]] void missing() { CPT_CHECK(false, "AVX2 kernels were not compiled into this binary"); }
}  // namespace

void gemm_nn_avx2(const float*, const float*, float*, std::size_t, std::size_t, std::size_t) {
    missing();
}
void gemm_nt_avx2(const float*, const float*, float*, std::size_t, std::size_t, std::size_t) {
    missing();
}
void gemm_nt_decode_avx2(const float*, const float*, std::size_t, float*, std::size_t,
                         std::size_t, std::size_t) {
    missing();
}
void gemm_tn_avx2(const float*, const float*, float*, std::size_t, std::size_t, std::size_t) {
    missing();
}
void gemv_nn_avx2(const float*, const float*, float*, std::size_t, std::size_t) { missing(); }

}  // namespace cpt::nn::detail

#endif
