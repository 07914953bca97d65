// The register tiles behind every GEMM of the avx2 tier (gemm.hpp: gemm_nn,
// gemm_nt, gemm_tn and gemm_nt_decode), written once over a vector-width
// trait V and instantiated by the two ISA translation units: gemm_avx2.cpp (8
// lanes) and gemm_avx512.cpp (16 lanes). Everything here has internal
// linkage, so each TU keeps its own copy compiled with its own ISA flags; the
// linker can never hand an AVX-512 copy to an AVX2 caller.
//
// V provides: Reg, Mask and Index types; kLanes (floats per Reg); kRows and
// kVecs, the rows and vectors of a full tile (kRows * kVecs accumulators,
// kVecs panel vectors and one broadcast must fit the register file); zero(),
// load(p), bcast(p), fma(a, b, c), add(a, b), store(p, v), mask(lanes),
// load_masked(p, m), store_masked(p, v, m), row_offsets(stride) (lane r holds
// r * stride) and gather(p, idx) (lane r loads p[idx_r]).
//
// Operands: A element (r, k) sits at a[r * rs + k * ks] — (rs, ks) = (k_dim,
// 1) for a row-major [M, K] A, (1, m_dim) for gemm_tn's [K, M] A. B is a
// k-major panel, element (k, j) at p[k * ld + j]: gemm_nn's [K, N] B in
// place, or Bᵀ packed (gemm_nt per call, DecodePanel once per decoder). No
// read goes past column n_dim of a panel row: a strip's last vector loads
// through the lane mask, so an in-place B needs no padding. C is row-major
// [M, N].
//
// Per C element: acc = fma(a[r, k], b[k, j], acc) over ascending k from
// acc = 0, then c += acc, one add. That is one FMA chain per lane whatever
// the layout, the width, the tile shape or the rows around it, so the three
// training layouts and decode give the same bits, and so do the two widths.
#pragma once

#include <cstddef>

namespace cpt::nn::detail {
namespace {

// M rows x NV vectors of columns starting at panel column 0 of `p`. The last
// vector holds `tail` valid lanes (1..kLanes) and is read and written in C
// through the lane mask; kPartial tiles (tail < kLanes) also load it from the
// panel through the mask, which costs AVX2 a uop per load, so whole tiles
// load it plainly.
template <class V, std::size_t M, std::size_t NV, bool kPartial>
void tile(const float* a, std::size_t rs, std::size_t ks, std::size_t k_dim, const float* p,
          std::size_t ld, float* c, std::size_t ldc, std::size_t tail) {
    using Reg = typename V::Reg;
    const auto mask = V::mask(tail);
    // The unroll pragmas on the two r loops outside the k loop let GCC 12
    // unroll them before scalar replacement: left rolled, acc stays an
    // array in memory, and the register allocator then stores every
    // accumulator to the stack on every k step (measured at 6 x 2 and up).
    Reg acc[M][NV];
#pragma GCC unroll 32
    for (std::size_t r = 0; r < M; ++r) {
        for (std::size_t v = 0; v < NV; ++v) acc[r][v] = V::zero();
    }
    for (std::size_t k = 0; k < k_dim; ++k) {
        const float* prow = p + k * ld;
        const float* ak = a + k * ks;
        Reg b[NV];
        for (std::size_t v = 0; v + 1 < NV; ++v) b[v] = V::load(prow + v * V::kLanes);
        const float* last = prow + (NV - 1) * V::kLanes;
        b[NV - 1] = kPartial ? V::load_masked(last, mask) : V::load(last);
        for (std::size_t r = 0; r < M; ++r) {
            const Reg av = V::bcast(ak + r * rs);
            for (std::size_t v = 0; v < NV; ++v) acc[r][v] = V::fma(av, b[v], acc[r][v]);
        }
    }
#pragma GCC unroll 32
    for (std::size_t r = 0; r < M; ++r) {
        float* crow = c + r * ldc;
        for (std::size_t v = 0; v + 1 < NV; ++v) {
            float* cv = crow + v * V::kLanes;
            V::store(cv, V::add(V::load(cv), acc[r][v]));
        }
        float* cl = crow + (NV - 1) * V::kLanes;
        V::store_masked(cl, V::add(V::load_masked(cl, mask), acc[r][NV - 1]), mask);
    }
}

// The M-row strip of at most NV vectors starting at column j; a strip cut
// short by n_dim runs the narrower tile.
template <class V, std::size_t M, std::size_t NV>
void strip(const float* a, std::size_t rs, std::size_t ks, std::size_t k_dim, const float* p,
           std::size_t ld, float* c, std::size_t ldc, std::size_t j, std::size_t n_dim) {
    const std::size_t left = n_dim - j;
    const std::size_t nv = (left + V::kLanes - 1) / V::kLanes;
    if constexpr (NV > 1) {
        if (nv < NV) {
            strip<V, M, NV - 1>(a, rs, ks, k_dim, p, ld, c, ldc, j, n_dim);
            return;
        }
    }
    const std::size_t tail = nv > NV ? V::kLanes : left - (NV - 1) * V::kLanes;
    if (tail == V::kLanes) {
        tile<V, M, NV, false>(a, rs, ks, k_dim, p + j, ld, c + j, ldc, tail);
    } else {
        tile<V, M, NV, true>(a, rs, ks, k_dim, p + j, ld, c + j, ldc, tail);
    }
}

// Fewer rows than a full tile, across every column. Short tiles take wider
// strips so that even one row keeps eight FMA chains in flight.
template <class V, std::size_t M>
void short_rows(const float* a, std::size_t rs, std::size_t ks, std::size_t k_dim,
                const float* p, std::size_t ld, float* c, std::size_t n_dim) {
    constexpr std::size_t NV = 8 / M > V::kVecs ? 8 / M : V::kVecs;
    for (std::size_t j = 0; j < n_dim; j += NV * V::kLanes) {
        strip<V, M, NV>(a, rs, ks, k_dim, p, ld, c, n_dim, j, n_dim);
    }
}

template <class V, std::size_t M>
void short_rows_upto(std::size_t rows, const float* a, std::size_t rs, std::size_t ks,
                     std::size_t k_dim, const float* p, std::size_t ld, float* c,
                     std::size_t n_dim) {
    if constexpr (M > 1) {
        if (rows < M) {
            short_rows_upto<V, M - 1>(rows, a, rs, ks, k_dim, p, ld, c, n_dim);
            return;
        }
    }
    short_rows<V, M>(a, rs, ks, k_dim, p, ld, c, n_dim);
}

// Rows as lanes for a panel of N <= 8 columns: lane r of acc[j] is C element
// (r, j) of a group of kLanes rows, so every FMA fills all lanes where a
// column tile fills N of them (2 of 16 for the two-logit heads). A's column
// k for the group comes in one gather; the weight is broadcast. Per element
// the chain is the column tiles' own — fma over ascending k from 0, then one
// add to C — so the bytes are too.
template <class V, std::size_t N>
void rows_as_lanes(const float* a, std::size_t rs, std::size_t ks, std::size_t k_dim,
                   const float* p, std::size_t ld, float* c, std::size_t groups) {
    using Reg = typename V::Reg;
    const auto rows = V::row_offsets(rs);
    for (std::size_t g = 0; g < groups; ++g) {
        const float* ag = a + g * V::kLanes * rs;
        Reg acc[N];
        for (std::size_t j = 0; j < N; ++j) acc[j] = V::zero();
        for (std::size_t k = 0; k < k_dim; ++k) {
            const Reg av = V::gather(ag + k * ks, rows);
            const float* prow = p + k * ld;
            for (std::size_t j = 0; j < N; ++j) acc[j] = V::fma(av, V::bcast(prow + j), acc[j]);
        }
        float* cg = c + g * V::kLanes * N;
        alignas(64) float lane[V::kLanes];
        for (std::size_t j = 0; j < N; ++j) {
            V::store(lane, acc[j]);
            for (std::size_t r = 0; r < V::kLanes; ++r) cg[r * N + j] += lane[r];
        }
    }
}

// C[M,N] += A * B over all rows. A panel of at most 8 columns runs its whole
// groups of kLanes rows as lanes (fewer rows than that lose to the gathers).
// Otherwise full row tiles walk the columns strip by strip, and every full
// tile reads a strip (k x kVecs vectors) while it is still in L1. The
// m % kRows rows left over then take one pass of short tiles.
template <class V>
void panel_product(const float* a, std::size_t rs, std::size_t ks, const float* p,
                   std::size_t ld, float* c, std::size_t m_dim, std::size_t k_dim,
                   std::size_t n_dim) {
    if (n_dim <= 8 && m_dim >= V::kLanes) {
        const std::size_t groups = m_dim / V::kLanes;
        switch (n_dim) {
            case 1: rows_as_lanes<V, 1>(a, rs, ks, k_dim, p, ld, c, groups); break;
            case 2: rows_as_lanes<V, 2>(a, rs, ks, k_dim, p, ld, c, groups); break;
            case 3: rows_as_lanes<V, 3>(a, rs, ks, k_dim, p, ld, c, groups); break;
            case 4: rows_as_lanes<V, 4>(a, rs, ks, k_dim, p, ld, c, groups); break;
            case 5: rows_as_lanes<V, 5>(a, rs, ks, k_dim, p, ld, c, groups); break;
            case 6: rows_as_lanes<V, 6>(a, rs, ks, k_dim, p, ld, c, groups); break;
            case 7: rows_as_lanes<V, 7>(a, rs, ks, k_dim, p, ld, c, groups); break;
            default: rows_as_lanes<V, 8>(a, rs, ks, k_dim, p, ld, c, groups); break;
        }
        const std::size_t done = groups * V::kLanes;
        a += done * rs;
        c += done * n_dim;
        m_dim -= done;
        if (m_dim == 0) return;
    }
    constexpr std::size_t kWidth = V::kVecs * V::kLanes;
    const std::size_t full = m_dim - m_dim % V::kRows;
    for (std::size_t j = 0; j < n_dim; j += kWidth) {
        for (std::size_t r = 0; r < full; r += V::kRows) {
            strip<V, V::kRows, V::kVecs>(a + r * rs, rs, ks, k_dim, p, ld, c + r * n_dim, n_dim,
                                         j, n_dim);
        }
    }
    if (full < m_dim) {
        short_rows_upto<V, V::kRows - 1>(m_dim - full, a + full * rs, rs, ks, k_dim, p, ld,
                                         c + full * n_dim, n_dim);
    }
}

}  // namespace
}  // namespace cpt::nn::detail
