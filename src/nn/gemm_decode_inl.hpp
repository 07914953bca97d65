// The decode NT register tiles behind gemm_nt_decode (gemm.hpp), written once
// over a vector-width trait V and instantiated by the two ISA translation
// units: gemm_avx2.cpp (8 lanes) and gemm_avx512.cpp (16 lanes). Everything
// here has internal linkage, so each TU keeps its own copy compiled with its
// own ISA flags; the linker can never hand an AVX-512 copy to an AVX2 caller.
//
// V provides: Reg, Mask and Index types; kLanes (floats per Reg); kRows and
// kVecs, the rows and vectors of a full tile (kRows * kVecs accumulators,
// kVecs panel vectors and one broadcast must fit the register file); zero(),
// load(p), bcast(p), fma(a, b, c), add(a, b), store(p, v), mask(lanes),
// load_masked(p, m), store_masked(p, v, m), row_offsets(k_dim) (lane r holds
// r * k_dim) and gather(p, idx) (lane r loads p[idx_r]).
//
// Per C element: acc = fma(a[k], panel[k][j], acc) over ascending k from
// acc = 0, then c += acc, one add. That is one FMA chain per lane whatever
// the width, the tile shape or the rows around it — the chain gemm_nt_avx2
// runs per element too, so decode rows equal the training product bit for
// bit and the two widths equal each other.
#pragma once

#include <cstddef>

namespace cpt::nn::detail {
namespace {

// M rows x NV vectors of columns starting at panel column 0 of `p` (stride
// ld). The last vector holds `tail` valid lanes (1..kLanes): panel loads are
// always whole vectors, as the panel's zero padding covers the rounded-up
// columns, and only C is read and written through the lane mask.
template <class V, std::size_t M, std::size_t NV>
void decode_tile(const float* a, std::size_t k_dim, const float* p, std::size_t ld, float* c,
                 std::size_t ldc, std::size_t tail) {
    using Reg = typename V::Reg;
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
        Reg b[NV];
        for (std::size_t v = 0; v < NV; ++v) b[v] = V::load(prow + v * V::kLanes);
        for (std::size_t r = 0; r < M; ++r) {
            const Reg av = V::bcast(a + r * k_dim + k);
            for (std::size_t v = 0; v < NV; ++v) acc[r][v] = V::fma(av, b[v], acc[r][v]);
        }
    }
    const auto mask = V::mask(tail);
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
void decode_strip(const float* a, std::size_t k_dim, const float* p, std::size_t ld, float* c,
                  std::size_t ldc, std::size_t j, std::size_t n_dim) {
    const std::size_t left = n_dim - j;
    const std::size_t nv = (left + V::kLanes - 1) / V::kLanes;
    if constexpr (NV > 1) {
        if (nv < NV) {
            decode_strip<V, M, NV - 1>(a, k_dim, p, ld, c, ldc, j, n_dim);
            return;
        }
    }
    const std::size_t tail = nv > NV ? V::kLanes : left - (NV - 1) * V::kLanes;
    decode_tile<V, M, NV>(a, k_dim, p + j, ld, c + j, ldc, tail);
}

// Fewer rows than a full tile, across every column. Short tiles take wider
// strips so that even one row keeps eight FMA chains in flight.
template <class V, std::size_t M>
void decode_short_rows(const float* a, std::size_t k_dim, const float* p, std::size_t ld,
                       float* c, std::size_t n_dim) {
    constexpr std::size_t NV = 8 / M > V::kVecs ? 8 / M : V::kVecs;
    for (std::size_t j = 0; j < n_dim; j += NV * V::kLanes) {
        decode_strip<V, M, NV>(a, k_dim, p, ld, c, n_dim, j, n_dim);
    }
}

template <class V, std::size_t M>
void decode_short_rows_upto(std::size_t rows, const float* a, std::size_t k_dim, const float* p,
                            std::size_t ld, float* c, std::size_t n_dim) {
    if constexpr (M > 1) {
        if (rows < M) {
            decode_short_rows_upto<V, M - 1>(rows, a, k_dim, p, ld, c, n_dim);
            return;
        }
    }
    decode_short_rows<V, M>(a, k_dim, p, ld, c, n_dim);
}

// Rows as lanes for a panel of N <= 8 columns: lane r of acc[j] is C element
// (r, j) of a group of kLanes rows, so every FMA fills all lanes where a
// column tile fills N of them (2 of 16 for the two-logit heads). A's column
// k for the group comes in one gather; the weight is broadcast. Per element
// the chain is the column tiles' own — fma over ascending k from 0, then one
// add to C — so the bytes are too.
template <class V, std::size_t N>
void decode_rows_as_lanes(const float* a, std::size_t k_dim, const float* p, std::size_t ld,
                          float* c, std::size_t groups) {
    using Reg = typename V::Reg;
    const auto rows = V::row_offsets(k_dim);
    for (std::size_t g = 0; g < groups; ++g) {
        const float* ag = a + g * V::kLanes * k_dim;
        Reg acc[N];
        for (std::size_t j = 0; j < N; ++j) acc[j] = V::zero();
        for (std::size_t k = 0; k < k_dim; ++k) {
            const Reg av = V::gather(ag + k, rows);
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

// C[M,N] += A[M,K] * panel over all rows. A panel of at most 8 columns runs
// its whole groups of kLanes rows as lanes (fewer rows than that lose to the
// gathers). Otherwise full row tiles walk the columns strip by strip, and
// every full tile reads a strip (k x kVecs vectors) while it is still in L1.
// The m % kRows rows left over then take one pass of short tiles.
template <class V>
void decode_panel(const float* a, const float* p, std::size_t ld, float* c, std::size_t m_dim,
                  std::size_t k_dim, std::size_t n_dim) {
    if (n_dim <= 8 && m_dim >= V::kLanes) {
        const std::size_t groups = m_dim / V::kLanes;
        switch (n_dim) {
            case 1: decode_rows_as_lanes<V, 1>(a, k_dim, p, ld, c, groups); break;
            case 2: decode_rows_as_lanes<V, 2>(a, k_dim, p, ld, c, groups); break;
            case 3: decode_rows_as_lanes<V, 3>(a, k_dim, p, ld, c, groups); break;
            case 4: decode_rows_as_lanes<V, 4>(a, k_dim, p, ld, c, groups); break;
            case 5: decode_rows_as_lanes<V, 5>(a, k_dim, p, ld, c, groups); break;
            case 6: decode_rows_as_lanes<V, 6>(a, k_dim, p, ld, c, groups); break;
            case 7: decode_rows_as_lanes<V, 7>(a, k_dim, p, ld, c, groups); break;
            default: decode_rows_as_lanes<V, 8>(a, k_dim, p, ld, c, groups); break;
        }
        const std::size_t done = groups * V::kLanes;
        a += done * k_dim;
        c += done * n_dim;
        m_dim -= done;
        if (m_dim == 0) return;
    }
    constexpr std::size_t kWidth = V::kVecs * V::kLanes;
    const std::size_t full = m_dim - m_dim % V::kRows;
    for (std::size_t j = 0; j < n_dim; j += kWidth) {
        for (std::size_t r = 0; r < full; r += V::kRows) {
            decode_strip<V, V::kRows, V::kVecs>(a + r * k_dim, k_dim, p, ld, c + r * n_dim, n_dim,
                                                j, n_dim);
        }
    }
    if (full < m_dim) {
        decode_short_rows_upto<V, V::kRows - 1>(m_dim - full, a + full * k_dim, k_dim, p, ld,
                                                c + full * n_dim, n_dim);
    }
}

}  // namespace
}  // namespace cpt::nn::detail
