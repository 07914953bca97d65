#include "gemm.hpp"

#include <algorithm>

#include "simd_detail.hpp"
#include "util/cpu.hpp"

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace cpt::nn {

namespace {

using util::SimdTier;

// Register-tile sizes. MR x NR float accumulators must fit the 16 SSE
// registers of the baseline x86-64 ABI: 4x8 = 32 floats = 8 xmm, leaving
// room for the A broadcast and B loads.
constexpr std::size_t kMr = 4;
constexpr std::size_t kNr = 8;
// NT keeps NR smaller: its micro-kernel streams MR + NR rows concurrently.
constexpr std::size_t kNrNt = 4;
// Column block so one B panel stays cache-resident across row tiles.
constexpr std::size_t kNc = 256;
// Minimum FLOPs a parallel chunk should carry; below this, threads cost more
// than they save.
constexpr std::size_t kMinChunkFlops = 1 << 18;

std::size_t row_grain(std::size_t k_dim, std::size_t n_dim) {
    return util::grain_for(2 * k_dim * n_dim, kMinChunkFlops);
}

util::ThreadPool& pick(util::ThreadPool* pool) {
    return pool ? *pool : util::global_pool();
}

// ---- NN: C[M,N] += A[M,K] * B[K,N] -------------------------------------------
// A rows are broadcast, B rows are read contiguously per k; accumulators live
// in registers for the whole (unsplit) K extent.
//
// Both the scalar and SSE2 micro-kernels perform, per C element, exactly the
// chain `acc += a * b` in ascending k with one accumulator per element — the
// SSE2 bodies are the same per-lane IEEE operations four lanes at a time — so
// BOTH tiers stay bit-identical to the reference kernels. GCC's SLP
// vectorizer handles the TN form on its own but leaves these two scalar (the
// strided A / B accesses defeat it), hence the explicit intrinsics.

using MicroNnFn = void (*)(const float*, std::size_t, const float*, std::size_t, float*,
                           std::size_t, std::size_t);

void micro_nn_fixed_scalar(const float* a, std::size_t lda, const float* b, std::size_t ldb,
                           float* c, std::size_t ldc, std::size_t k_dim) {
    float acc[kMr][kNr] = {};
    for (std::size_t k = 0; k < k_dim; ++k) {
        const float* brow = b + k * ldb;
        for (std::size_t i = 0; i < kMr; ++i) {
            const float av = a[i * lda + k];
            for (std::size_t j = 0; j < kNr; ++j) acc[i][j] += av * brow[j];
        }
    }
    for (std::size_t i = 0; i < kMr; ++i) {
        for (std::size_t j = 0; j < kNr; ++j) c[i * ldc + j] += acc[i][j];
    }
}

#if defined(__SSE2__)
void micro_nn_fixed_sse2(const float* a, std::size_t lda, const float* b, std::size_t ldb,
                         float* c, std::size_t ldc, std::size_t k_dim) {
    __m128 acc[kMr][2] = {};
    for (std::size_t k = 0; k < k_dim; ++k) {
        const float* brow = b + k * ldb;
        const __m128 b0 = _mm_loadu_ps(brow);
        const __m128 b1 = _mm_loadu_ps(brow + 4);
        for (std::size_t i = 0; i < kMr; ++i) {
            const __m128 av = _mm_set1_ps(a[i * lda + k]);
            acc[i][0] = _mm_add_ps(acc[i][0], _mm_mul_ps(av, b0));
            acc[i][1] = _mm_add_ps(acc[i][1], _mm_mul_ps(av, b1));
        }
    }
    for (std::size_t i = 0; i < kMr; ++i) {
        float* crow = c + i * ldc;
        _mm_storeu_ps(crow, _mm_add_ps(_mm_loadu_ps(crow), acc[i][0]));
        _mm_storeu_ps(crow + 4, _mm_add_ps(_mm_loadu_ps(crow + 4), acc[i][1]));
    }
}
#endif

void micro_nn_edge(const float* a, std::size_t lda, const float* b, std::size_t ldb, float* c,
                   std::size_t ldc, std::size_t k_dim, std::size_t mr, std::size_t nr) {
    float acc[kMr][kNr] = {};
    for (std::size_t k = 0; k < k_dim; ++k) {
        const float* brow = b + k * ldb;
        for (std::size_t i = 0; i < mr; ++i) {
            const float av = a[i * lda + k];
            for (std::size_t j = 0; j < nr; ++j) acc[i][j] += av * brow[j];
        }
    }
    for (std::size_t i = 0; i < mr; ++i) {
        for (std::size_t j = 0; j < nr; ++j) c[i * ldc + j] += acc[i][j];
    }
}

template <MicroNnFn kFixed>
void gemm_nn_rows(const float* a, const float* b, float* c, std::size_t k_dim, std::size_t n_dim,
                  std::size_t r0, std::size_t r1) {
    for (std::size_t n0 = 0; n0 < n_dim; n0 += kNc) {
        const std::size_t nb = std::min(kNc, n_dim - n0);
        for (std::size_t m0 = r0; m0 < r1; m0 += kMr) {
            const std::size_t mr = std::min(kMr, r1 - m0);
            const float* atile = a + m0 * k_dim;
            float* crow = c + m0 * n_dim + n0;
            std::size_t j0 = 0;
            if (mr == kMr) {
                for (; j0 + kNr <= nb; j0 += kNr) {
                    kFixed(atile, k_dim, b + n0 + j0, n_dim, crow + j0, n_dim, k_dim);
                }
            }
            for (; j0 < nb; j0 += kNr) {
                micro_nn_edge(atile, k_dim, b + n0 + j0, n_dim, crow + j0, n_dim, k_dim, mr,
                              std::min(kNr, nb - j0));
            }
        }
    }
}

// ---- NT: C[M,N] += A[M,K] * B^T, B stored [N,K] -------------------------------
// Both operands stream contiguously along k; no packing needed.

using MicroNtFn = void (*)(const float*, const float*, float*, std::size_t, std::size_t,
                           std::size_t, std::size_t);

void micro_nt_fixed_scalar(const float* a, const float* b, float* c, std::size_t ldc,
                           std::size_t k_dim, std::size_t lda, std::size_t ldb) {
    float acc[kMr][kNrNt] = {};
    for (std::size_t k = 0; k < k_dim; ++k) {
        for (std::size_t i = 0; i < kMr; ++i) {
            const float av = a[i * lda + k];
            for (std::size_t j = 0; j < kNrNt; ++j) acc[i][j] += av * b[j * ldb + k];
        }
    }
    for (std::size_t i = 0; i < kMr; ++i) {
        for (std::size_t j = 0; j < kNrNt; ++j) c[i * ldc + j] += acc[i][j];
    }
}

#if defined(__SSE2__)
void micro_nt_fixed_sse2(const float* a, const float* b, float* c, std::size_t ldc,
                         std::size_t k_dim, std::size_t lda, std::size_t ldb) {
    // Neither operand is contiguous across the 4 B rows, so the B column is
    // gathered into one vector per k; lane j of acc[i] is C[i][j]'s single
    // ascending-k accumulator.
    __m128 acc[kMr] = {};
    for (std::size_t k = 0; k < k_dim; ++k) {
        const __m128 bv = _mm_set_ps(b[3 * ldb + k], b[2 * ldb + k], b[1 * ldb + k], b[0 * ldb + k]);
        for (std::size_t i = 0; i < kMr; ++i) {
            const __m128 av = _mm_set1_ps(a[i * lda + k]);
            acc[i] = _mm_add_ps(acc[i], _mm_mul_ps(av, bv));
        }
    }
    for (std::size_t i = 0; i < kMr; ++i) {
        float* crow = c + i * ldc;
        _mm_storeu_ps(crow, _mm_add_ps(_mm_loadu_ps(crow), acc[i]));
    }
}
#endif

void micro_nt_edge(const float* a, const float* b, float* c, std::size_t ldc, std::size_t k_dim,
                   std::size_t lda, std::size_t ldb, std::size_t mr, std::size_t nr) {
    float acc[kMr][kNrNt] = {};
    for (std::size_t k = 0; k < k_dim; ++k) {
        for (std::size_t i = 0; i < mr; ++i) {
            const float av = a[i * lda + k];
            for (std::size_t j = 0; j < nr; ++j) acc[i][j] += av * b[j * ldb + k];
        }
    }
    for (std::size_t i = 0; i < mr; ++i) {
        for (std::size_t j = 0; j < nr; ++j) c[i * ldc + j] += acc[i][j];
    }
}

// One A row x kNrRow B rows. The fixed trip counts keep the kNrRow
// independent accumulators in registers, where the runtime-bounded edge
// kernel would leave short row tiles (m < kMr, every m = 1 decode row
// included) latency-bound on one chain. Same single ascending-k chain per
// element as the reference.
constexpr std::size_t kNrRow = 8;

using MicroNtRowFn = void (*)(const float*, const float*, float*, std::size_t);

void micro_nt_row_scalar(const float* a, const float* b, float* c, std::size_t k_dim) {
    float acc[kNrRow] = {};
    for (std::size_t k = 0; k < k_dim; ++k) {
        const float av = a[k];
        for (std::size_t j = 0; j < kNrRow; ++j) acc[j] += av * b[j * k_dim + k];
    }
    for (std::size_t j = 0; j < kNrRow; ++j) c[j] += acc[j];
}

#if defined(__SSE2__)
void micro_nt_row_sse2(const float* a, const float* b, float* c, std::size_t k_dim) {
    // Each 4x4 block of B (four B rows x four k) is transposed in registers,
    // so lane j of acc[g] carries column 4g + j's single ascending-k chain
    // without a per-element gather.
    __m128 acc[2] = {};
    std::size_t k = 0;
    for (; k + 4 <= k_dim; k += 4) {
        const __m128 av[4] = {_mm_set1_ps(a[k]), _mm_set1_ps(a[k + 1]), _mm_set1_ps(a[k + 2]),
                              _mm_set1_ps(a[k + 3])};
        for (std::size_t g = 0; g < 2; ++g) {
            const float* bg = b + 4 * g * k_dim + k;
            __m128 t0 = _mm_loadu_ps(bg);
            __m128 t1 = _mm_loadu_ps(bg + k_dim);
            __m128 t2 = _mm_loadu_ps(bg + 2 * k_dim);
            __m128 t3 = _mm_loadu_ps(bg + 3 * k_dim);
            _MM_TRANSPOSE4_PS(t0, t1, t2, t3);
            acc[g] = _mm_add_ps(acc[g], _mm_mul_ps(av[0], t0));
            acc[g] = _mm_add_ps(acc[g], _mm_mul_ps(av[1], t1));
            acc[g] = _mm_add_ps(acc[g], _mm_mul_ps(av[2], t2));
            acc[g] = _mm_add_ps(acc[g], _mm_mul_ps(av[3], t3));
        }
    }
    for (; k < k_dim; ++k) {
        const __m128 av = _mm_set1_ps(a[k]);
        for (std::size_t g = 0; g < 2; ++g) {
            const float* bg = b + 4 * g * k_dim + k;
            const __m128 bv = _mm_set_ps(bg[3 * k_dim], bg[2 * k_dim], bg[k_dim], bg[0]);
            acc[g] = _mm_add_ps(acc[g], _mm_mul_ps(av, bv));
        }
    }
    _mm_storeu_ps(c, _mm_add_ps(_mm_loadu_ps(c), acc[0]));
    _mm_storeu_ps(c + 4, _mm_add_ps(_mm_loadu_ps(c + 4), acc[1]));
}
#endif

template <MicroNtFn kFixed, MicroNtRowFn kRow>
void gemm_nt_rows(const float* a, const float* b, float* c, std::size_t k_dim, std::size_t n_dim,
                  std::size_t r0, std::size_t r1) {
    for (std::size_t m0 = r0; m0 < r1; m0 += kMr) {
        const std::size_t mr = std::min(kMr, r1 - m0);
        const float* atile = a + m0 * k_dim;
        float* crow = c + m0 * n_dim;
        std::size_t j0 = 0;
        if (mr == kMr) {
            for (; j0 + kNrNt <= n_dim; j0 += kNrNt) {
                kFixed(atile, b + j0 * k_dim, crow + j0, n_dim, k_dim, k_dim, k_dim);
            }
        } else {
            for (; j0 + kNrRow <= n_dim; j0 += kNrRow) {
                for (std::size_t i = 0; i < mr; ++i) {
                    kRow(atile + i * k_dim, b + j0 * k_dim, crow + i * n_dim + j0, k_dim);
                }
            }
        }
        for (; j0 < n_dim; j0 += kNrNt) {
            micro_nt_edge(atile, b + j0 * k_dim, crow + j0, n_dim, k_dim, k_dim, k_dim, mr,
                          std::min(kNrNt, n_dim - j0));
        }
    }
}

// ---- TN: C[M,N] += A^T * B, A stored [K,M], B [K,N] ---------------------------
// Per k both loads are contiguous short vectors (along m and n respectively).
// GCC SLP-vectorizes this form, so one micro-kernel serves the scalar and
// sse2 tiers (identical bits either way: one ascending-k accumulator per
// element).

template <std::size_t MR, std::size_t NR>
void micro_tn_fixed(const float* a, const float* b, float* c, std::size_t ldc, std::size_t k_dim,
                    std::size_t lda, std::size_t ldb) {
    float acc[MR][NR] = {};
    for (std::size_t k = 0; k < k_dim; ++k) {
        const float* arow = a + k * lda;
        const float* brow = b + k * ldb;
        for (std::size_t i = 0; i < MR; ++i) {
            const float av = arow[i];
            for (std::size_t j = 0; j < NR; ++j) acc[i][j] += av * brow[j];
        }
    }
    for (std::size_t i = 0; i < MR; ++i) {
        for (std::size_t j = 0; j < NR; ++j) c[i * ldc + j] += acc[i][j];
    }
}

void micro_tn_edge(const float* a, const float* b, float* c, std::size_t ldc, std::size_t k_dim,
                   std::size_t lda, std::size_t ldb, std::size_t mr, std::size_t nr) {
    float acc[kMr][kNr] = {};
    for (std::size_t k = 0; k < k_dim; ++k) {
        const float* arow = a + k * lda;
        const float* brow = b + k * ldb;
        for (std::size_t i = 0; i < mr; ++i) {
            const float av = arow[i];
            for (std::size_t j = 0; j < nr; ++j) acc[i][j] += av * brow[j];
        }
    }
    for (std::size_t i = 0; i < mr; ++i) {
        for (std::size_t j = 0; j < nr; ++j) c[i * ldc + j] += acc[i][j];
    }
}

void gemm_tn_rows(const float* a, const float* b, float* c, std::size_t m_dim, std::size_t k_dim,
                  std::size_t n_dim, std::size_t r0, std::size_t r1) {
    for (std::size_t m0 = r0; m0 < r1; m0 += kMr) {
        const std::size_t mr = std::min(kMr, r1 - m0);
        float* crow = c + m0 * n_dim;
        std::size_t j0 = 0;
        if (mr == kMr) {
            for (; j0 + kNr <= n_dim; j0 += kNr) {
                micro_tn_fixed<kMr, kNr>(a + m0, b + j0, crow + j0, n_dim, k_dim, m_dim, n_dim);
            }
        }
        for (; j0 < n_dim; j0 += kNr) {
            micro_tn_edge(a + m0, b + j0, crow + j0, n_dim, k_dim, m_dim, n_dim, mr,
                          std::min(kNr, n_dim - j0));
        }
    }
}

// ---- NN/TN GEMV fast paths (m == 1) -------------------------------------------
// A single output row wastes the blocked drivers' register tile. These paths
// run on the calling thread: one row is far below any useful parallel grain.
// (NT decode rows go through gemm_nt_decode instead, whose contract is that
// a row's bits never depend on m.)
//
// nn/tn with m == 1 are the same computation: c[n] += sum_k a[k] * B[k,n]
// with a contiguous (A is [1,K] or [K,1]). One ascending-k accumulator per
// element, so the scalar and sse2 variants stay bit-identical to the
// reference kernels.

// Two loop orders, same per-element arithmetic. The j-tile form holds
// accumulators in registers but walks B with stride n*4 bytes; once that
// stride reaches a page (n >= 1024) every load is an unprefetchable miss.
// The chunk form streams B rows sequentially into a zero-initialised
// accumulator buffer (<= 4 KiB, L1-resident) and adds it to c at the end.
// Either way each output element is (0 + sum over ascending k) added to the
// prefilled c last — exactly the reference order, so both stay bit-identical
// to gemm_*_ref on the scalar and sse2 tiers.
constexpr std::size_t kGemvChunk = 1024;          // accumulator floats per pass
constexpr std::size_t kGemvWideN = 512;           // switch to streaming above this

void gemv_nn_scalar(const float* a, const float* b, float* c, std::size_t k_dim,
                    std::size_t n_dim) {
    float acc[kGemvChunk];
    for (std::size_t j0 = 0; j0 < n_dim; j0 += kGemvChunk) {
        const std::size_t w = std::min(kGemvChunk, n_dim - j0);
        std::fill_n(acc, w, 0.0f);
        for (std::size_t k = 0; k < k_dim; ++k) {
            const float av = a[k];
            const float* brow = b + k * n_dim + j0;
            for (std::size_t j = 0; j < w; ++j) acc[j] += av * brow[j];
        }
        float* cj = c + j0;
        for (std::size_t j = 0; j < w; ++j) cj[j] += acc[j];
    }
}

#if defined(__SSE2__)
void gemv_nn_sse2(const float* a, const float* b, float* c, std::size_t k_dim, std::size_t n_dim) {
    if (n_dim > kGemvWideN) {
        // Streaming form: B read once, sequentially.
        alignas(16) float acc[kGemvChunk];
        for (std::size_t j0 = 0; j0 < n_dim; j0 += kGemvChunk) {
            const std::size_t w = std::min(kGemvChunk, n_dim - j0);
            std::fill_n(acc, w, 0.0f);
            for (std::size_t k = 0; k < k_dim; ++k) {
                const __m128 av = _mm_set1_ps(a[k]);
                const float* brow = b + k * n_dim + j0;
                std::size_t j = 0;
                for (; j + 16 <= w; j += 16) {
                    for (std::size_t u = 0; u < 4; ++u) {
                        float* aj = acc + j + 4 * u;
                        _mm_store_ps(aj, _mm_add_ps(_mm_load_ps(aj),
                                                    _mm_mul_ps(av, _mm_loadu_ps(brow + j + 4 * u))));
                    }
                }
                for (; j < w; ++j) acc[j] += a[k] * brow[j];
            }
            float* cj = c + j0;
            for (std::size_t j = 0; j < w; ++j) cj[j] += acc[j];
        }
        return;
    }
    constexpr std::size_t kTile = 16;  // 4 xmm accumulators
    std::size_t j0 = 0;
    for (; j0 + kTile <= n_dim; j0 += kTile) {
        __m128 acc[4] = {};
        for (std::size_t k = 0; k < k_dim; ++k) {
            const __m128 av = _mm_set1_ps(a[k]);
            const float* brow = b + k * n_dim + j0;
            for (std::size_t j = 0; j < 4; ++j) {
                acc[j] = _mm_add_ps(acc[j], _mm_mul_ps(av, _mm_loadu_ps(brow + 4 * j)));
            }
        }
        for (std::size_t j = 0; j < 4; ++j) {
            float* cj = c + j0 + 4 * j;
            _mm_storeu_ps(cj, _mm_add_ps(_mm_loadu_ps(cj), acc[j]));
        }
    }
    // Column tail: same per-element mul+add chain as the vector lanes.
    for (; j0 < n_dim; ++j0) {
        float acc = 0.0f;
        for (std::size_t k = 0; k < k_dim; ++k) acc += a[k] * b[k * n_dim + j0];
        c[j0] += acc;
    }
}
#endif

void gemv_nn_dispatch(const float* a, const float* b, float* c, std::size_t k_dim,
                      std::size_t n_dim, SimdTier tier) {
    switch (tier) {
        case SimdTier::kAvx2:
            detail::gemv_nn_avx2(a, b, c, k_dim, n_dim);
            return;
        case SimdTier::kSse2:
#if defined(__SSE2__)
            gemv_nn_sse2(a, b, c, k_dim, n_dim);
            return;
#else
            break;
#endif
        case SimdTier::kScalar:
            break;
    }
    gemv_nn_scalar(a, b, c, k_dim, n_dim);
}

#if defined(__SSE2__)
constexpr MicroNnFn kMicroNnSse2 = micro_nn_fixed_sse2;
constexpr MicroNtFn kMicroNtSse2 = micro_nt_fixed_sse2;
constexpr MicroNtRowFn kMicroNtRowSse2 = micro_nt_row_sse2;
#else
constexpr MicroNnFn kMicroNnSse2 = micro_nn_fixed_scalar;
constexpr MicroNtFn kMicroNtSse2 = micro_nt_fixed_scalar;
constexpr MicroNtRowFn kMicroNtRowSse2 = micro_nt_row_scalar;
#endif

// Rows [r0, r1) of the scalar/sse2 NT product: the reference chain, shared
// by the threaded training entry and the single-threaded decode entry.
void gemm_nt_rows_ref_chain(bool sse2, const float* a, const float* b, float* c,
                            std::size_t k_dim, std::size_t n_dim, std::size_t r0,
                            std::size_t r1) {
    if (sse2) {
        gemm_nt_rows<kMicroNtSse2, kMicroNtRowSse2>(a, b, c, k_dim, n_dim, r0, r1);
    } else {
        gemm_nt_rows<micro_nt_fixed_scalar, micro_nt_row_scalar>(a, b, c, k_dim, n_dim, r0, r1);
    }
}

}  // namespace

void gemm_nn(const float* a, const float* b, float* c, std::size_t m_dim, std::size_t k_dim,
             std::size_t n_dim, util::ThreadPool* pool) {
    if (m_dim == 0 || k_dim == 0 || n_dim == 0) return;
    const SimdTier tier = util::active_simd_tier();
    if (m_dim == 1) {
        gemv_nn_dispatch(a, b, c, k_dim, n_dim, tier);
        return;
    }
    if (tier == SimdTier::kAvx2) {
        detail::gemm_nn_avx2(a, b, c, m_dim, k_dim, n_dim, pick(pool));
        return;
    }
    const bool sse2 = tier == SimdTier::kSse2;
    pick(pool).parallel_for(m_dim, row_grain(k_dim, n_dim), [&](std::size_t r0, std::size_t r1) {
        if (sse2) {
            gemm_nn_rows<kMicroNnSse2>(a, b, c, k_dim, n_dim, r0, r1);
        } else {
            gemm_nn_rows<micro_nn_fixed_scalar>(a, b, c, k_dim, n_dim, r0, r1);
        }
    });
}

void gemm_nt(const float* a, const float* b, float* c, std::size_t m_dim, std::size_t k_dim,
             std::size_t n_dim, util::ThreadPool* pool) {
    if (m_dim == 0 || k_dim == 0 || n_dim == 0) return;
    const SimdTier tier = util::active_simd_tier();
    if (tier == SimdTier::kAvx2) {
        detail::gemm_nt_avx2(a, b, c, m_dim, k_dim, n_dim, pick(pool));
        return;
    }
    const bool sse2 = tier == SimdTier::kSse2;
    pick(pool).parallel_for(m_dim, row_grain(k_dim, n_dim), [&](std::size_t r0, std::size_t r1) {
        gemm_nt_rows_ref_chain(sse2, a, b, c, k_dim, n_dim, r0, r1);
    });
}

void gemm_nt_decode(const float* a, const float* b, float* c, std::size_t m_dim, std::size_t k_dim,
                    std::size_t n_dim) {
    if (m_dim == 0 || k_dim == 0 || n_dim == 0) return;
    const SimdTier tier = util::active_simd_tier();
    if (tier == SimdTier::kAvx2) {
        detail::gemm_nt_decode_avx2(a, b, c, m_dim, k_dim, n_dim);
        return;
    }
    // scalar/sse2 gemm_nt is the reference chain for every m, m = 1 included.
    gemm_nt_rows_ref_chain(tier == SimdTier::kSse2, a, b, c, k_dim, n_dim, 0, m_dim);
}

void gemm_tn(const float* a, const float* b, float* c, std::size_t m_dim, std::size_t k_dim,
             std::size_t n_dim, util::ThreadPool* pool) {
    if (m_dim == 0 || k_dim == 0 || n_dim == 0) return;
    const SimdTier tier = util::active_simd_tier();
    if (m_dim == 1) {
        // A is [K, 1] — contiguous along k, identical computation to nn GEMV.
        gemv_nn_dispatch(a, b, c, k_dim, n_dim, tier);
        return;
    }
    if (tier == SimdTier::kAvx2) {
        detail::gemm_tn_avx2(a, b, c, m_dim, k_dim, n_dim, pick(pool));
        return;
    }
    pick(pool).parallel_for(m_dim, row_grain(k_dim, n_dim), [&](std::size_t r0, std::size_t r1) {
        gemm_tn_rows(a, b, c, m_dim, k_dim, n_dim, r0, r1);
    });
}

void gemm_nn_ref(const float* a, const float* b, float* c, std::size_t m_dim, std::size_t k_dim,
                 std::size_t n_dim) {
    for (std::size_t m = 0; m < m_dim; ++m) {
        const float* arow = a + m * k_dim;
        float* crow = c + m * n_dim;
        for (std::size_t n = 0; n < n_dim; ++n) {
            float acc = 0.0f;
            for (std::size_t k = 0; k < k_dim; ++k) acc += arow[k] * b[k * n_dim + n];
            crow[n] += acc;
        }
    }
}

void gemm_nt_ref(const float* a, const float* b, float* c, std::size_t m_dim, std::size_t k_dim,
                 std::size_t n_dim) {
    for (std::size_t m = 0; m < m_dim; ++m) {
        const float* arow = a + m * k_dim;
        float* crow = c + m * n_dim;
        for (std::size_t n = 0; n < n_dim; ++n) {
            const float* brow = b + n * k_dim;
            float acc = 0.0f;
            for (std::size_t k = 0; k < k_dim; ++k) acc += arow[k] * brow[k];
            crow[n] += acc;
        }
    }
}

void gemm_tn_ref(const float* a, const float* b, float* c, std::size_t m_dim, std::size_t k_dim,
                 std::size_t n_dim) {
    for (std::size_t m = 0; m < m_dim; ++m) {
        float* crow = c + m * n_dim;
        for (std::size_t n = 0; n < n_dim; ++n) {
            float acc = 0.0f;
            for (std::size_t k = 0; k < k_dim; ++k) acc += a[k * m_dim + m] * b[k * n_dim + n];
            crow[n] += acc;
        }
    }
}

}  // namespace cpt::nn
