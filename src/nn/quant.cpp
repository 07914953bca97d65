#include "quant.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "kernels.hpp"
#include "simd_detail.hpp"
#include "util/check.hpp"
#include "util/cpu.hpp"

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace cpt::nn {

namespace {

using util::SimdTier;

// Integer-dot chunk width: the idot scratch stays on the stack (2 KiB) and
// the float epilogue runs over it in cache.
constexpr std::size_t kQ8Chunk = 512;

// idot[j] = sum_k a[k] * w[j,k] for j in [0, n): exact int32 on every tier
// (codes are 7-bit, so |sum| <= k * 127 * 127 — no overflow for any k this
// project can reach).
void gemv_q8_dots_scalar(const std::uint8_t* a, const std::int8_t* w, std::int32_t* idot,
                         std::size_t k_dim, std::size_t n_dim) {
    for (std::size_t j = 0; j < n_dim; ++j) {
        const std::int8_t* wrow = w + j * k_dim;
        std::int32_t s = 0;
        for (std::size_t i = 0; i < k_dim; ++i) {
            s += static_cast<std::int32_t>(a[i]) * static_cast<std::int32_t>(wrow[i]);
        }
        idot[j] = s;
    }
}

#if defined(__SSE2__)
// SSE2 has no VPMADDUBSW, so widen u8 (zero-extend) and s8 (sign-extend via
// a compare mask) to i16 and use PMADDWD. Same exact integers as the scalar
// loop — integer addition is associative.
std::int32_t dot_q8_sse2(const std::uint8_t* a, const std::int8_t* w, std::size_t k_dim) {
    const __m128i zero = _mm_setzero_si128();
    __m128i acc = _mm_setzero_si128();
    std::size_t i = 0;
    for (; i + 16 <= k_dim; i += 16) {
        const __m128i av = _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i));
        const __m128i wv = _mm_loadu_si128(reinterpret_cast<const __m128i*>(w + i));
        const __m128i alo = _mm_unpacklo_epi8(av, zero);
        const __m128i ahi = _mm_unpackhi_epi8(av, zero);
        const __m128i wsign = _mm_cmpgt_epi8(zero, wv);
        const __m128i wlo = _mm_unpacklo_epi8(wv, wsign);
        const __m128i whi = _mm_unpackhi_epi8(wv, wsign);
        acc = _mm_add_epi32(acc, _mm_madd_epi16(alo, wlo));
        acc = _mm_add_epi32(acc, _mm_madd_epi16(ahi, whi));
    }
    __m128i s = _mm_add_epi32(acc, _mm_shuffle_epi32(acc, _MM_SHUFFLE(1, 0, 3, 2)));
    s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(2, 3, 0, 1)));
    std::int32_t r = _mm_cvtsi128_si32(s);
    for (; i < k_dim; ++i) {
        r += static_cast<std::int32_t>(a[i]) * static_cast<std::int32_t>(w[i]);
    }
    return r;
}

void gemv_q8_dots_sse2(const std::uint8_t* a, const std::int8_t* w, std::int32_t* idot,
                       std::size_t k_dim, std::size_t n_dim) {
    for (std::size_t j = 0; j < n_dim; ++j) idot[j] = dot_q8_sse2(a, w + j * k_dim, k_dim);
}
#endif

void gemv_q8_dots(const std::uint8_t* a, const std::int8_t* w, std::int32_t* idot,
                  std::size_t k_dim, std::size_t n_dim, SimdTier tier) {
    switch (tier) {
        case SimdTier::kAvx2:
            detail::gemv_q8_dots_avx2(a, w, idot, k_dim, n_dim);
            return;
        case SimdTier::kSse2:
#if defined(__SSE2__)
            gemv_q8_dots_sse2(a, w, idot, k_dim, n_dim);
            return;
#else
            break;
#endif
        case SimdTier::kScalar:
            break;
    }
    gemv_q8_dots_scalar(a, w, idot, k_dim, n_dim);
}

// One activation row against all weight rows: integer dots per chunk, then
// the fixed float epilogue. The epilogue lives only in this TU (compiled
// without -mfma), so no tier can contract the mul+add into an FMA — the
// float result is the same bit pattern everywhere.
void gemv_q8_row(const std::uint8_t* arow, float as, const std::int8_t* wq, const float* wscale,
                 const std::int32_t* rowsum, float* crow, std::size_t k_dim, std::size_t n_dim,
                 SimdTier tier) {
    std::int32_t idot[kQ8Chunk];
    for (std::size_t j0 = 0; j0 < n_dim; j0 += kQ8Chunk) {
        const std::size_t w = std::min(kQ8Chunk, n_dim - j0);
        gemv_q8_dots(arow, wq + j0 * k_dim, idot, k_dim, w, tier);
        for (std::size_t j = 0; j < w; ++j) {
            crow[j0 + j] += (as * wscale[j0 + j]) *
                            static_cast<float>(idot[j] - 64 * rowsum[j0 + j]);
        }
    }
}

}  // namespace

const char* precision_name(Precision p) {
    switch (p) {
        case Precision::kFp32:
            return "fp32";
        case Precision::kInt8W8A32:
            return "int8_w8a32";
    }
    return "unknown";
}

Precision parse_precision(const std::string& s) {
    if (s == "fp32") return Precision::kFp32;
    if (s == "int8" || s == "int8_w8a32") return Precision::kInt8W8A32;
    throw std::invalid_argument("unknown precision '" + s + "' (expected fp32 or int8)");
}

void QuantScratch::ensure(std::size_t rows, std::size_t k) {
    if (qa.size() < rows * k) qa.resize(rows * k);
    if (ascale.size() < rows) ascale.resize(rows);
}

void quantize_activations(const float* x, std::size_t rows, std::size_t k, QuantScratch& qs) {
    qs.ensure(rows, k);
    std::uint8_t* qa = qs.qa.data();
    float* ascale = qs.ascale.data();
    for (std::size_t r = 0; r < rows; ++r) {
        const float* row = x + r * k;
        std::uint8_t* qrow = qa + r * k;
        float amax = 0.0f;
        for (std::size_t j = 0; j < k; ++j) amax = std::max(amax, std::fabs(row[j]));
        // amax == 0: all codes collapse to the offset (q = 0) and the
        // zero scale annihilates the epilogue — the row contributes
        // exactly its bias.
        const float inv = amax > 0.0f ? 63.0f / amax : 0.0f;
        ascale[r] = amax > 0.0f ? amax / 63.0f : 0.0f;
        for (std::size_t j = 0; j < k; ++j) {
            float q = std::nearbyintf(row[j] * inv);
            q = std::min(63.0f, std::max(-63.0f, q));
            qrow[j] = static_cast<std::uint8_t>(static_cast<std::int32_t>(q) + 64);
        }
    }
}

void quantize_weights_rowwise(const float* w, std::size_t out, std::size_t in, std::int8_t* wq,
                              float* scale) {
    for (std::size_t r = 0; r < out; ++r) {
        const float* row = w + r * in;
        float wmax = 0.0f;
        for (std::size_t j = 0; j < in; ++j) wmax = std::max(wmax, std::fabs(row[j]));
        const float inv = wmax > 0.0f ? 127.0f / wmax : 0.0f;
        scale[r] = wmax > 0.0f ? wmax / 127.0f : 0.0f;
        std::int8_t* qrow = wq + r * in;
        for (std::size_t j = 0; j < in; ++j) {
            float q = std::nearbyintf(row[j] * inv);
            q = std::min(127.0f, std::max(-127.0f, q));
            qrow[j] = static_cast<std::int8_t>(static_cast<std::int32_t>(q));
        }
    }
}

void dequantize_weights_rowwise(const std::int8_t* wq, const float* scale, std::size_t out,
                                std::size_t in, float* w) {
    for (std::size_t r = 0; r < out; ++r) {
        const float s = scale[r];
        const std::int8_t* qrow = wq + r * in;
        float* row = w + r * in;
        for (std::size_t j = 0; j < in; ++j) row[j] = static_cast<float>(qrow[j]) * s;
    }
}

void rowsums_q8(const std::int8_t* wq, std::size_t out, std::size_t in, std::int32_t* rowsum) {
    for (std::size_t r = 0; r < out; ++r) {
        const std::int8_t* qrow = wq + r * in;
        std::int32_t s = 0;
        for (std::size_t j = 0; j < in; ++j) s += qrow[j];
        rowsum[r] = s;
    }
}

void gemm_q8_nt(const std::uint8_t* qa, const float* ascale, const std::int8_t* wq,
                const float* wscale, const std::int32_t* wrowsum, float* c, std::size_t m_dim,
                std::size_t k_dim, std::size_t n_dim) {
    if (m_dim == 0 || k_dim == 0 || n_dim == 0) return;
    const SimdTier tier = util::active_simd_tier();
    for (std::size_t r = 0; r < m_dim; ++r) {
        gemv_q8_row(qa + r * k_dim, ascale[r], wq, wscale, wrowsum, c + r * n_dim, k_dim, n_dim,
                    tier);
    }
}

// ---- Quantized module mirrors -------------------------------------------------

QuantLinear QuantLinear::from(const Linear& fp) {
    QuantLinear q;
    q.in = fp.in_features();
    q.out = fp.out_features();
    q.wq.resize(q.in * q.out);
    q.scale.resize(q.out);
    q.rowsum.resize(q.out);
    quantize_weights_rowwise(fp.weight()->value.data().data(), q.out, q.in, q.wq.data(),
                             q.scale.data());
    rowsums_q8(q.wq.data(), q.out, q.in, q.rowsum.data());
    const auto b = fp.bias()->value.data();
    q.bias.assign(b.begin(), b.end());
    return q;
}

void QuantLinear::install(std::vector<std::int8_t> wq_in, std::vector<float> scale_in) {
    CPT_CHECK_EQ(wq_in.size(), in * out, " QuantLinear::install: payload size mismatch");
    CPT_CHECK_EQ(scale_in.size(), out, " QuantLinear::install: scale size mismatch");
    wq = std::move(wq_in);
    scale = std::move(scale_in);
    rowsum.resize(out);
    rowsums_q8(wq.data(), out, in, rowsum.data());
}

void QuantLinear::forward_rows(const float* x, float* y, std::size_t rows,
                               QuantScratch& qs) const {
    kernels::fill_bias_rows(y, bias.data(), rows, out);
    apply_rows(x, y, rows, qs);
}

void QuantLinear::apply_rows(const float* x, float* y, std::size_t rows, QuantScratch& qs) const {
    quantize_activations(x, rows, in, qs);
    gemm_q8_nt(qs.qa.data(), qs.ascale.data(), wq.data(), scale.data(), rowsum.data(), y, rows,
               in, out);
}

QuantMlp QuantMlp::from(const Mlp& fp) {
    QuantMlp q;
    q.fc1 = QuantLinear::from(fp.fc1());
    q.fc2 = QuantLinear::from(fp.fc2());
    return q;
}

void QuantMlp::forward_rows(const float* x, float* hidden, float* y, std::size_t rows,
                            QuantScratch& qs) const {
    const std::size_t h = fc1.out;
    std::fill_n(hidden, rows * h, 0.0f);
    fc1.apply_rows(x, hidden, rows, qs);
    for (std::size_t r = 0; r < rows; ++r) {
        kernels::bias_gelu_row(hidden + r * h, fc1.bias.data(), h);
    }
    fc2.forward_rows(hidden, y, rows, qs);
}

TransformerQuant TransformerQuant::from(const Transformer& model) {
    TransformerQuant q;
    q.input_proj = QuantLinear::from(model.input_proj());
    q.blocks.reserve(model.blocks().size());
    for (const auto& block : model.blocks()) {
        Block b;
        b.wq = QuantLinear::from(block->attn().wq());
        b.wk = QuantLinear::from(block->attn().wk());
        b.wv = QuantLinear::from(block->attn().wv());
        b.wo = QuantLinear::from(block->attn().wo());
        b.mlp = QuantMlp::from(block->mlp());
        q.blocks.push_back(std::move(b));
    }
    return q;
}

std::size_t TransformerQuant::weight_bytes() const {
    std::size_t total = input_proj.weight_bytes();
    for (const auto& b : blocks) {
        total += b.wq.weight_bytes() + b.wk.weight_bytes() + b.wv.weight_bytes() +
                 b.wo.weight_bytes() + b.mlp.weight_bytes();
    }
    return total;
}

}  // namespace cpt::nn
