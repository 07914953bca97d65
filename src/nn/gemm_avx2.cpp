// AVX2+FMA GEMM/GEMV tier. Built with -mavx2 -mfma (see src/nn/CMakeLists);
// when the compiler lacks those flags every entry point degrades to a
// CPT_CHECK failure — the dispatcher in gemm.cpp never selects this tier
// unless util::detect_simd_tier() reports it available.
//
// Accumulation contract (same as gemm.cpp): every C element is one dot
// product with a fixed operation order depending only on (element index,
// shape) — a single ascending-k FMA chain per lane for the broadcast kernels,
// the canonical dot_fma tree for the k-contiguous kernels. Every kernel runs
// on its caller's thread. Scalar edge paths use std::fma to round exactly
// like the vector lanes.
#include "simd_detail.hpp"

#include "util/check.hpp"

#if defined(__AVX2__) && defined(__FMA__)

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

// ---- NT decode: batch-invariant, pack-free row tiles -------------------------
// Every output element uses one canonical sequence — a single 8-wide FMA
// chain in ascending k, hsum8, then a scalar std::fma tail — no matter which
// tile computes it. Tiles only change how A/B loads are shared, so neither
// the row count nor the row tiling changes an element's bits:
// row r of an m-row product equals the 1-row product of A's row r.

float dot_fma(const float* a, const float* b, std::size_t k_dim) {
    const std::size_t k8 = k_dim & ~std::size_t{7};
    __m256 acc = _mm256_setzero_ps();
    for (std::size_t i = 0; i < k8; i += 8) {
        acc = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i), acc);
    }
    float s = hsum8(acc);
    for (std::size_t t = k8; t < k_dim; ++t) s = std::fma(a[t], b[t], s);
    return s;
}

// M A rows x W B rows per k-step, over columns [j0, j1): the B stream is
// shared across all M rows, so weight traffic for an M-row tile matches a
// single GEMV pass instead of scaling with M. Short tiles take more columns
// (W = 8 at one row, 4 at two or three) so every tile keeps at least 8
// independent FMA chains in flight. Without a k tail the M * W sums reduce
// four at a time through hsum8x4, which is hsum8 bit for bit; columns left
// over below W take dot_fma.
template <std::size_t M>
void nt_tile_cols(const float* a, const float* b, float* c, std::size_t k_dim, std::size_t n_dim,
                  std::size_t j0, std::size_t j1) {
    constexpr std::size_t W = M == 1 ? 8 : M <= 3 ? 4 : 2;
    constexpr std::size_t kSums = M * W;
    const std::size_t k8 = k_dim & ~std::size_t{7};
    std::size_t j = j0;
    for (; j + W <= j1; j += W) {
        const float* bt = b + j * k_dim;
        __m256 acc[kSums];
        for (std::size_t s = 0; s < kSums; ++s) acc[s] = _mm256_setzero_ps();
        for (std::size_t i = 0; i < k8; i += 8) {
            __m256 vb[W];
            for (std::size_t w = 0; w < W; ++w) vb[w] = _mm256_loadu_ps(bt + w * k_dim + i);
            for (std::size_t r = 0; r < M; ++r) {
                const __m256 va = _mm256_loadu_ps(a + r * k_dim + i);
                for (std::size_t w = 0; w < W; ++w) {
                    acc[r * W + w] = _mm256_fmadd_ps(va, vb[w], acc[r * W + w]);
                }
            }
        }
        if (k8 == k_dim) {
            alignas(16) float sums[kSums];
            std::size_t s = 0;
            for (; s + 4 <= kSums; s += 4) {
                _mm_store_ps(sums + s, hsum8x4(acc[s], acc[s + 1], acc[s + 2], acc[s + 3]));
            }
            for (; s < kSums; ++s) sums[s] = hsum8(acc[s]);
            for (std::size_t r = 0; r < M; ++r) {
                for (std::size_t w = 0; w < W; ++w) c[r * n_dim + j + w] += sums[r * W + w];
            }
            continue;
        }
        // A k tail needs its scalar fmas between the reduction and the store;
        // kept off the path above, whose fixed trip counts unroll fully.
        for (std::size_t r = 0; r < M; ++r) {
            const float* arow = a + r * k_dim;
            for (std::size_t w = 0; w < W; ++w) {
                const float* brow = bt + w * k_dim;
                float v = hsum8(acc[r * W + w]);
                for (std::size_t t = k8; t < k_dim; ++t) v = std::fma(arow[t], brow[t], v);
                c[r * n_dim + j + w] += v;
            }
        }
    }
    for (; j < j1; ++j) {
        const float* brow = b + j * k_dim;
        for (std::size_t r = 0; r < M; ++r) {
            c[r * n_dim + j] += dot_fma(a + r * k_dim, brow, k_dim);
        }
    }
}

// Rows per full decode tile: 2 * kMrDecode accumulators + two B vectors +
// one A vector stay within the 16 ymm registers.
constexpr std::size_t kMrDecode = 6;
// Bytes of B one column block spans, so a block stays L1-resident while
// every row tile streams it.
constexpr std::size_t kDecodeBlockBytes = 16 * 1024;

}  // namespace

void gemm_nn_avx2(const float* a, const float* b, float* c, std::size_t m_dim, std::size_t k_dim,
                  std::size_t n_dim) {
    gemm_bcast<false>(a, b, c, m_dim, k_dim, n_dim);
}

void gemm_tn_avx2(const float* a, const float* b, float* c, std::size_t m_dim, std::size_t k_dim,
                  std::size_t n_dim) {
    gemm_bcast<true>(a, b, c, m_dim, k_dim, n_dim);
}

void gemm_nt_decode_avx2(const float* a, const float* b, float* c, std::size_t m_dim,
                         std::size_t k_dim, std::size_t n_dim) {
    // Blocked over columns, then full row tiles, then one short tile for the
    // m % kMrDecode remainder rows. Column blocks are outermost so B streams
    // once for all rows: decode is weight-bandwidth bound, and per-row B
    // re-reads would make an m-row step (or speculative verify window) cost
    // ~m GEMVs. The block is a multiple of 8 columns, so blocks split no
    // tile of any width.
    const std::size_t block =
        std::max<std::size_t>(8, (kDecodeBlockBytes / (sizeof(float) * k_dim)) & ~std::size_t{7});
    const std::size_t rem = m_dim % kMrDecode;
    const std::size_t full = m_dim - rem;
    const float* atail = a + full * k_dim;
    float* ctail = c + full * n_dim;
    for (std::size_t jb = 0; jb < n_dim; jb += block) {
        const std::size_t je = std::min(n_dim, jb + block);
        for (std::size_t r = 0; r < full; r += kMrDecode) {
            nt_tile_cols<kMrDecode>(a + r * k_dim, b, c + r * n_dim, k_dim, n_dim, jb, je);
        }
        switch (rem) {
            case 5: nt_tile_cols<5>(atail, b, ctail, k_dim, n_dim, jb, je); break;
            case 4: nt_tile_cols<4>(atail, b, ctail, k_dim, n_dim, jb, je); break;
            case 3: nt_tile_cols<3>(atail, b, ctail, k_dim, n_dim, jb, je); break;
            case 2: nt_tile_cols<2>(atail, b, ctail, k_dim, n_dim, jb, je); break;
            case 1: nt_tile_cols<1>(atail, b, ctail, k_dim, n_dim, jb, je); break;
            default: break;
        }
    }
}

void gemm_nt_avx2(const float* a, const float* b, float* c, std::size_t m_dim, std::size_t k_dim,
                  std::size_t n_dim) {
    // Dot-style NT kernels pay a horizontal reduction per output element — at
    // training k (64–256) that is ~a third of the work. Instead pack each
    // kNc-wide B panel transposed into [k x nb] and reuse the broadcast
    // micro-kernels: no reductions, and the per-element chain (one FMA per
    // ascending k) is the same as the NN path. The pack buffer is
    // thread_local and reused across calls. At training shapes this edges
    // out the pack-free decode tiles (1024 x 64 x 64, one thread: 51 against
    // 48 GFLOP/s); the per-call pack only loses when m is a handful of rows,
    // which is the decode entry's job.
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

// ---- Int8 GEMV dots (quantized decode path) -----------------------------------
// VPMADDUBSW multiplies u8 activation codes by s8 weights into saturating i16
// pair sums; with 7-bit codes (<= 127) a pair is at most 2*127*127 = 32258,
// so saturation never fires and VPMADDWD's widening to i32 is exact. Integer
// addition is associative, so any tiling reproduces the scalar tier's result
// bit for bit — no ordering argument needed, unlike the float kernels.

namespace {

inline std::int32_t hsum8_epi32(__m256i v) {
    __m128i s = _mm_add_epi32(_mm256_castsi256_si128(v), _mm256_extracti128_si256(v, 1));
    s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(1, 0, 3, 2)));
    s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(2, 3, 0, 1)));
    return _mm_cvtsi128_si32(s);
}

std::int32_t dot_q8_avx2(const std::uint8_t* a, const std::int8_t* w, std::size_t k_dim) {
    const __m256i ones = _mm256_set1_epi16(1);
    __m256i acc = _mm256_setzero_si256();
    std::size_t i = 0;
    for (; i + 32 <= k_dim; i += 32) {
        const __m256i av = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
        const __m256i wv = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w + i));
        acc = _mm256_add_epi32(acc, _mm256_madd_epi16(_mm256_maddubs_epi16(av, wv), ones));
    }
    std::int32_t r = hsum8_epi32(acc);
    for (; i < k_dim; ++i) {
        r += static_cast<std::int32_t>(a[i]) * static_cast<std::int32_t>(w[i]);
    }
    return r;
}

}  // namespace

void gemv_q8_dots_avx2(const std::uint8_t* a, const std::int8_t* w, std::int32_t* idot,
                       std::size_t k_dim, std::size_t n_dim) {
    const __m256i ones = _mm256_set1_epi16(1);
    const std::size_t k32 = k_dim & ~std::size_t{31};
    std::size_t j = 0;
    // Four weight rows per pass: the activation block is loaded once and the
    // four independent i32 accumulators keep the multiply ports busy.
    for (; j + 4 <= n_dim; j += 4) {
        const std::int8_t* w0 = w + j * k_dim;
        const std::int8_t* w1 = w0 + k_dim;
        const std::int8_t* w2 = w1 + k_dim;
        const std::int8_t* w3 = w2 + k_dim;
        __m256i acc0 = _mm256_setzero_si256();
        __m256i acc1 = _mm256_setzero_si256();
        __m256i acc2 = _mm256_setzero_si256();
        __m256i acc3 = _mm256_setzero_si256();
        for (std::size_t i = 0; i < k32; i += 32) {
            const __m256i av = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
            acc0 = _mm256_add_epi32(
                acc0, _mm256_madd_epi16(
                          _mm256_maddubs_epi16(
                              av, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w0 + i))),
                          ones));
            acc1 = _mm256_add_epi32(
                acc1, _mm256_madd_epi16(
                          _mm256_maddubs_epi16(
                              av, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w1 + i))),
                          ones));
            acc2 = _mm256_add_epi32(
                acc2, _mm256_madd_epi16(
                          _mm256_maddubs_epi16(
                              av, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w2 + i))),
                          ones));
            acc3 = _mm256_add_epi32(
                acc3, _mm256_madd_epi16(
                          _mm256_maddubs_epi16(
                              av, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w3 + i))),
                          ones));
        }
        std::int32_t s0 = hsum8_epi32(acc0);
        std::int32_t s1 = hsum8_epi32(acc1);
        std::int32_t s2 = hsum8_epi32(acc2);
        std::int32_t s3 = hsum8_epi32(acc3);
        for (std::size_t i = k32; i < k_dim; ++i) {
            const std::int32_t av = a[i];
            s0 += av * w0[i];
            s1 += av * w1[i];
            s2 += av * w2[i];
            s3 += av * w3[i];
        }
        idot[j] = s0;
        idot[j + 1] = s1;
        idot[j + 2] = s2;
        idot[j + 3] = s3;
    }
    for (; j < n_dim; ++j) idot[j] = dot_q8_avx2(a, w + j * k_dim, k_dim);
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
void gemm_nt_decode_avx2(const float*, const float*, float*, std::size_t, std::size_t,
                         std::size_t) {
    missing();
}
void gemm_tn_avx2(const float*, const float*, float*, std::size_t, std::size_t, std::size_t) {
    missing();
}
void gemv_nn_avx2(const float*, const float*, float*, std::size_t, std::size_t) { missing(); }
void gemv_q8_dots_avx2(const std::uint8_t*, const std::int8_t*, std::int32_t*, std::size_t,
                       std::size_t) {
    missing();
}

}  // namespace cpt::nn::detail

#endif
