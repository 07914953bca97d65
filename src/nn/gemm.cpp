#include "gemm.hpp"

#include <algorithm>
#include <new>
#include <vector>

#include "simd_detail.hpp"
#include "util/cpu.hpp"

namespace cpt::nn {

namespace {

// The one GEMM engine: C[M,N] += A * B, A element (r, k) at a[r * rs +
// k * ks], B a k-major panel, element (k, j) at p[k * ld + j]. avx2 runs the
// register tiles at the host's width; scalar runs one row at a time, B rows
// streaming into a zeroed accumulator chunk (<= 4 KiB, L1-resident) that is
// added to C at the end, so each element is (0 + products in ascending k)
// added to C once — the reference kernels' chain, bit for bit. Four k steps
// share one pass over the chunk, adding their products in ascending k, which
// quarters the chunk's loads and stores without touching that chain.
void panel_gemm(const float* a, std::size_t rs, std::size_t ks, const float* p, std::size_t ld,
                float* c, std::size_t m_dim, std::size_t k_dim, std::size_t n_dim) {
    switch (util::decode_lanes(util::active_simd_tier())) {
        case 16:
            detail::gemm_panel_avx512(a, rs, ks, p, ld, c, m_dim, k_dim, n_dim);
            return;
        case 8:
            detail::gemm_panel_avx2(a, rs, ks, p, ld, c, m_dim, k_dim, n_dim);
            return;
        default:
            break;
    }
    constexpr std::size_t kChunk = 1024;
    float acc[kChunk];
    for (std::size_t r = 0; r < m_dim; ++r) {
        const float* ar = a + r * rs;
        float* cr = c + r * n_dim;
        for (std::size_t j0 = 0; j0 < n_dim; j0 += kChunk) {
            const std::size_t w = std::min(kChunk, n_dim - j0);
            std::fill_n(acc, w, 0.0f);
            std::size_t k = 0;
            for (; k + 4 <= k_dim; k += 4) {
                const float a0 = ar[k * ks], a1 = ar[(k + 1) * ks];
                const float a2 = ar[(k + 2) * ks], a3 = ar[(k + 3) * ks];
                const float* p0 = p + k * ld + j0;
                const float* p1 = p0 + ld;
                const float* p2 = p1 + ld;
                const float* p3 = p2 + ld;
                for (std::size_t j = 0; j < w; ++j) {
                    acc[j] = (((acc[j] + a0 * p0[j]) + a1 * p1[j]) + a2 * p2[j]) + a3 * p3[j];
                }
            }
            for (; k < k_dim; ++k) {
                const float av = ar[k * ks];
                const float* prow = p + k * ld + j0;
                for (std::size_t j = 0; j < w; ++j) acc[j] += av * prow[j];
            }
            for (std::size_t j = 0; j < w; ++j) cr[j0 + j] += acc[j];
        }
    }
}

// Bᵀ of an NT operand B [N, K], k-major: out[k * stride + j] = B[j, k].
void pack_transposed(const float* b, std::size_t n_dim, std::size_t k_dim, std::size_t stride,
                     float* out) {
    for (std::size_t j = 0; j < n_dim; ++j) {
        const float* brow = b + j * k_dim;
        for (std::size_t k = 0; k < k_dim; ++k) out[k * stride + j] = brow[k];
    }
}

// The packed panel's row stride: N rounded up to whole 16-float vectors,
// plus 16, so it is never a multiple of a large power of two.
std::size_t panel_stride(std::size_t n_dim) { return (n_dim + 15) / 16 * 16 + 16; }

}  // namespace

// B [K, N] already is a k-major panel: it is read in place.
void gemm_nn(const float* a, const float* b, float* c, std::size_t m_dim, std::size_t k_dim,
             std::size_t n_dim) {
    if (m_dim == 0 || k_dim == 0 || n_dim == 0) return;
    panel_gemm(a, k_dim, 1, b, n_dim, c, m_dim, k_dim, n_dim);
}

// Bᵀ is packed per call into a thread-local buffer that is reused across
// calls; gemm_nt_decode runs the same product over a panel packed once per
// decoder (DecodePanel), since a per-call pack would cost as much as a
// handful of decode rows.
void gemm_nt(const float* a, const float* b, float* c, std::size_t m_dim, std::size_t k_dim,
             std::size_t n_dim) {
    if (m_dim == 0 || k_dim == 0 || n_dim == 0) return;
    static thread_local std::vector<float> packed;
    const std::size_t stride = panel_stride(n_dim);
    packed.resize(k_dim * stride);
    pack_transposed(b, n_dim, k_dim, stride, packed.data());
    panel_gemm(a, k_dim, 1, packed.data(), stride, c, m_dim, k_dim, n_dim);
}

// A [K, M] is read through the (row, k) stride pair (1, M); B [K, N] in place.
void gemm_tn(const float* a, const float* b, float* c, std::size_t m_dim, std::size_t k_dim,
             std::size_t n_dim) {
    if (m_dim == 0 || k_dim == 0 || n_dim == 0) return;
    panel_gemm(a, 1, m_dim, b, n_dim, c, m_dim, k_dim, n_dim);
}

void DecodePanel::AlignedDelete::operator()(float* p) const {
    ::operator delete[](p, std::align_val_t{64});
}

DecodePanel::DecodePanel(const float* b, std::size_t n_dim, std::size_t k_dim)
    : k_(k_dim),
      n_(n_dim),
      stride_(panel_stride(n_dim)),
      data_(new (std::align_val_t{64}) float[k_dim * stride_]()) {
    pack_transposed(b, n_dim, k_dim, stride_, data_.get());
}

void gemm_nt_decode(const float* a, const DecodePanel& b, float* c, std::size_t m_dim) {
    if (m_dim == 0 || b.k() == 0 || b.n() == 0) return;
    panel_gemm(a, b.k(), 1, b.data(), b.stride(), c, m_dim, b.k(), b.n());
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
