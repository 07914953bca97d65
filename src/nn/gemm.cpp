#include "gemm.hpp"

#include <algorithm>
#include <new>

#include "simd_detail.hpp"
#include "util/cpu.hpp"

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

// ---- NN: C[M,N] += A[M,K] * B[K,N] -------------------------------------------
// A rows are broadcast, B rows are read contiguously per k; accumulators live
// in registers for the whole (unsplit) K extent.
//
// The scalar micro-kernels perform, per C element, exactly the chain
// `acc += a * b` in ascending k with one accumulator per element, so the
// scalar tier stays bit-identical to the reference kernels.

void micro_nn_fixed(const float* a, std::size_t lda, const float* b, std::size_t ldb,
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

void gemm_nn_tiles(const float* a, const float* b, float* c, std::size_t m_dim, std::size_t k_dim,
                   std::size_t n_dim) {
    for (std::size_t n0 = 0; n0 < n_dim; n0 += kNc) {
        const std::size_t nb = std::min(kNc, n_dim - n0);
        for (std::size_t m0 = 0; m0 < m_dim; m0 += kMr) {
            const std::size_t mr = std::min(kMr, m_dim - m0);
            const float* atile = a + m0 * k_dim;
            float* crow = c + m0 * n_dim + n0;
            std::size_t j0 = 0;
            if (mr == kMr) {
                for (; j0 + kNr <= nb; j0 += kNr) {
                    micro_nn_fixed(atile, k_dim, b + n0 + j0, n_dim, crow + j0, n_dim, k_dim);
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

void micro_nt_fixed(const float* a, const float* b, float* c, std::size_t ldc, std::size_t k_dim,
                    std::size_t lda, std::size_t ldb) {
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

void micro_nt_row(const float* a, const float* b, float* c, std::size_t k_dim) {
    float acc[kNrRow] = {};
    for (std::size_t k = 0; k < k_dim; ++k) {
        const float av = a[k];
        for (std::size_t j = 0; j < kNrRow; ++j) acc[j] += av * b[j * k_dim + k];
    }
    for (std::size_t j = 0; j < kNrRow; ++j) c[j] += acc[j];
}

void gemm_nt_tiles(const float* a, const float* b, float* c, std::size_t m_dim, std::size_t k_dim,
                   std::size_t n_dim) {
    for (std::size_t m0 = 0; m0 < m_dim; m0 += kMr) {
        const std::size_t mr = std::min(kMr, m_dim - m0);
        const float* atile = a + m0 * k_dim;
        float* crow = c + m0 * n_dim;
        std::size_t j0 = 0;
        if (mr == kMr) {
            for (; j0 + kNrNt <= n_dim; j0 += kNrNt) {
                micro_nt_fixed(atile, b + j0 * k_dim, crow + j0, n_dim, k_dim, k_dim, k_dim);
            }
        } else {
            for (; j0 + kNrRow <= n_dim; j0 += kNrRow) {
                for (std::size_t i = 0; i < mr; ++i) {
                    micro_nt_row(atile + i * k_dim, b + j0 * k_dim, crow + i * n_dim + j0, k_dim);
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
// GCC SLP-vectorizes this form on its own (identical bits: one ascending-k
// accumulator per element).

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

void gemm_tn_tiles(const float* a, const float* b, float* c, std::size_t m_dim,
                   std::size_t k_dim, std::size_t n_dim) {
    for (std::size_t m0 = 0; m0 < m_dim; m0 += kMr) {
        const std::size_t mr = std::min(kMr, m_dim - m0);
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
// A single output row wastes the blocked drivers' register tile.
//
// nn/tn with m == 1 are the same computation: c[n] += sum_k a[k] * B[k,n]
// with a contiguous (A is [1,K] or [K,1]). B rows (stride ldb) stream
// sequentially into a zero-initialised accumulator buffer (<= 4 KiB,
// L1-resident) that is added to c at the end, so each output element is
// (0 + sum over ascending k) added to the prefilled c last — exactly the
// reference order, bit-identical to gemm_*_ref. Scalar decode runs it once
// per row over the packed panel, which is the [K, N] B of this form.
constexpr std::size_t kGemvChunk = 1024;  // accumulator floats per pass

void gemv_nn_scalar(const float* a, const float* b, std::size_t ldb, float* c,
                    std::size_t k_dim, std::size_t n_dim) {
    float acc[kGemvChunk];
    for (std::size_t j0 = 0; j0 < n_dim; j0 += kGemvChunk) {
        const std::size_t w = std::min(kGemvChunk, n_dim - j0);
        std::fill_n(acc, w, 0.0f);
        for (std::size_t k = 0; k < k_dim; ++k) {
            const float av = a[k];
            const float* brow = b + k * ldb + j0;
            for (std::size_t j = 0; j < w; ++j) acc[j] += av * brow[j];
        }
        float* cj = c + j0;
        for (std::size_t j = 0; j < w; ++j) cj[j] += acc[j];
    }
}

void gemv_nn(const float* a, const float* b, float* c, std::size_t k_dim, std::size_t n_dim,
             SimdTier tier) {
    if (tier == SimdTier::kAvx2) {
        detail::gemv_nn_avx2(a, b, c, k_dim, n_dim);
    } else {
        gemv_nn_scalar(a, b, n_dim, c, k_dim, n_dim);
    }
}

}  // namespace

void gemm_nn(const float* a, const float* b, float* c, std::size_t m_dim, std::size_t k_dim,
             std::size_t n_dim) {
    if (m_dim == 0 || k_dim == 0 || n_dim == 0) return;
    const SimdTier tier = util::active_simd_tier();
    if (m_dim == 1) {
        gemv_nn(a, b, c, k_dim, n_dim, tier);
        return;
    }
    if (tier == SimdTier::kAvx2) {
        detail::gemm_nn_avx2(a, b, c, m_dim, k_dim, n_dim);
    } else {
        gemm_nn_tiles(a, b, c, m_dim, k_dim, n_dim);
    }
}

void gemm_nt(const float* a, const float* b, float* c, std::size_t m_dim, std::size_t k_dim,
             std::size_t n_dim) {
    if (m_dim == 0 || k_dim == 0 || n_dim == 0) return;
    const SimdTier tier = util::active_simd_tier();
    if (tier == SimdTier::kAvx2) {
        detail::gemm_nt_avx2(a, b, c, m_dim, k_dim, n_dim);
        return;
    }
    gemm_nt_tiles(a, b, c, m_dim, k_dim, n_dim);
}

void DecodePanel::AlignedDelete::operator()(float* p) const {
    ::operator delete[](p, std::align_val_t{64});
}

DecodePanel::DecodePanel(const float* b, std::size_t n_dim, std::size_t k_dim)
    : k_(k_dim),
      n_(n_dim),
      stride_((n_dim + 15) / 16 * 16 + 16),
      data_(new (std::align_val_t{64}) float[k_dim * stride_]()) {
    float* p = data_.get();
    for (std::size_t j = 0; j < n_dim; ++j) {
        const float* brow = b + j * k_dim;
        for (std::size_t k = 0; k < k_dim; ++k) p[k * stride_ + j] = brow[k];
    }
}

void gemm_nt_decode(const float* a, const DecodePanel& b, float* c, std::size_t m_dim) {
    const std::size_t k_dim = b.k();
    const std::size_t n_dim = b.n();
    if (m_dim == 0 || k_dim == 0 || n_dim == 0) return;
    switch (util::decode_lanes(util::active_simd_tier())) {
        case 16:
            detail::gemm_nt_decode_avx512(a, b.data(), b.stride(), c, m_dim, k_dim, n_dim);
            return;
        case 8:
            detail::gemm_nt_decode_avx2(a, b.data(), b.stride(), c, m_dim, k_dim, n_dim);
            return;
        default:
            // scalar: one reference chain per element, row by row.
            for (std::size_t r = 0; r < m_dim; ++r) {
                gemv_nn_scalar(a + r * k_dim, b.data(), b.stride(), c + r * n_dim, k_dim, n_dim);
            }
    }
}

void gemm_tn(const float* a, const float* b, float* c, std::size_t m_dim, std::size_t k_dim,
             std::size_t n_dim) {
    if (m_dim == 0 || k_dim == 0 || n_dim == 0) return;
    const SimdTier tier = util::active_simd_tier();
    if (m_dim == 1) {
        // A is [K, 1] — contiguous along k, identical computation to nn GEMV.
        gemv_nn(a, b, c, k_dim, n_dim, tier);
        return;
    }
    if (tier == SimdTier::kAvx2) {
        detail::gemm_tn_avx2(a, b, c, m_dim, k_dim, n_dim);
        return;
    }
    gemm_tn_tiles(a, b, c, m_dim, k_dim, n_dim);
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
