// Softmax and decode attention on the avx2 tier, in the operation order
// kernels.hpp defines for every tier. Each lane runs the scalar tier's
// sequence of IEEE multiplies and adds, so the two tiers give the same bits.
// This TU builds with -ffp-contract=off (src/nn/CMakeLists.txt): GCC would
// otherwise fuse _mm256_add_ps(_mm256_mul_ps(a, b), c) into one vfmadd, which
// rounds once where the scalar tier rounds twice. Row and head tails go
// through masked loads and stores or lanes assembled in a register; nothing
// goes through a stack buffer.
#include "simd_detail.hpp"

#include "kernels.hpp"
#include "util/check.hpp"

#if defined(__AVX2__) && defined(__FMA__)

#include "simd_avx2_inl.hpp"

#include <algorithm>
#include <iterator>
#include <limits>

namespace cpt::nn::detail {
namespace {

inline __m256 set1(float x) { return _mm256_set1_ps(x); }

// All ones in lanes [0, count), count in 0..8.
inline __m256i lane_mask(std::size_t count) {
    return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(count)),
                              _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

// kernels::exp_addmul on eight lanes.
inline __m256 exp8_addmul(__m256 x) {
    using namespace kernels;
    const __m256 below = _mm256_cmp_ps(x, set1(kExpMin), _CMP_LT_OQ);
    x = _mm256_min_ps(set1(kExpMax), x);  // min_ps returns x when x is NaN
    const __m256 t = _mm256_add_ps(_mm256_mul_ps(x, set1(kExpLog2e)), set1(kExpRound));
    const __m256 n = _mm256_sub_ps(t, set1(kExpRound));
    __m256 r = _mm256_sub_ps(x, _mm256_mul_ps(n, set1(kExpLn2Hi)));
    r = _mm256_sub_ps(r, _mm256_mul_ps(n, set1(kExpLn2Lo)));
    __m256 p = set1(kExpPoly[0]);
    for (std::size_t c = 1; c < std::size(kExpPoly); ++c) {
        p = _mm256_add_ps(_mm256_mul_ps(p, r), set1(kExpPoly[c]));
    }
    p = _mm256_add_ps(_mm256_add_ps(_mm256_mul_ps(p, _mm256_mul_ps(r, r)), r), set1(1.0f));
    const __m256i ni =
        _mm256_sub_epi32(_mm256_castps_si256(t), _mm256_castps_si256(set1(kExpRound)));
    const __m256 two_n =
        _mm256_castsi256_ps(_mm256_slli_epi32(_mm256_add_epi32(ni, _mm256_set1_epi32(127)), 23));
    return _mm256_andnot_ps(below, _mm256_mul_ps(p, two_n));
}

// Max over the lanes; exact under any association.
inline float hmax8(__m256 v) {
    __m128 m = _mm_max_ps(_mm256_castps256_ps128(v), _mm256_extractf128_ps(v, 1));
    m = _mm_max_ps(m, _mm_movehl_ps(m, m));
    m = _mm_max_ss(m, _mm_shuffle_ps(m, m, 1));
    return _mm_cvtss_f32(m);
}

// softmax_row's exp and normaliser: e_j = exp(in_j - mx) into out, summed
// into eight lane partials (lane j mod 8) that hsum8 adds. Returns the total.
inline float exp_shifted_sum(const float* in, float* out, std::size_t n, float mx) {
    const __m256 vmx = set1(mx);
    __m256 lanes = _mm256_setzero_ps();
    std::size_t j = 0;
    for (; j + 8 <= n; j += 8) {
        const __m256 e = exp8_addmul(_mm256_sub_ps(_mm256_loadu_ps(in + j), vmx));
        _mm256_storeu_ps(out + j, e);
        lanes = _mm256_add_ps(lanes, e);
    }
    if (j < n) {
        const __m256i m = lane_mask(n - j);
        const __m256 x = _mm256_sub_ps(_mm256_maskload_ps(in + j, m), vmx);
        const __m256 e = _mm256_and_ps(exp8_addmul(x), _mm256_castsi256_ps(m));
        _mm256_maskstore_ps(out + j, m, e);
        lanes = _mm256_add_ps(lanes, e);
    }
    return hsum8(lanes);
}

// Per-key sums of eight lane registers, key j's lanes reduced as
// ((l0 + l1) + (l2 + l3)) + ((l4 + l5) + (l6 + l7)); lane j of the result is
// key j's sum.
inline __m256 reduce_keys8(const __m256* acc) {
    const __m256 u0 =
        _mm256_hadd_ps(_mm256_hadd_ps(acc[0], acc[1]), _mm256_hadd_ps(acc[2], acc[3]));
    const __m256 u1 =
        _mm256_hadd_ps(_mm256_hadd_ps(acc[4], acc[5]), _mm256_hadd_ps(acc[6], acc[7]));
    return _mm256_add_ps(_mm256_permute2f128_ps(u0, u1, 0x20),
                         _mm256_permute2f128_ps(u0, u1, 0x31));
}

// The first `count` (1..7) elements of a KV row, zeros above.
inline __m256 load_part(const float* p, std::size_t count) {
    return _mm256_maskload_ps(p, lane_mask(count));
}

// Eight keys' scores before the scale, key j's row at k + j * C * 8 (C whole
// vectors per row): the keys of one block are consecutive cache rows, so
// every load is the block base plus a constant.
template <std::size_t C>
inline __m256 score_block(const __m256* qv, const float* k) {
    __m256 acc[8];
#pragma GCC unroll 8
    for (std::size_t j = 0; j < 8; ++j) {
        acc[j] = _mm256_mul_ps(qv[0], _mm256_loadu_ps(k + j * C * 8));
    }
#pragma GCC unroll 8
    for (std::size_t c = 1; c < C; ++c) {
#pragma GCC unroll 8
        for (std::size_t j = 0; j < 8; ++j) {
            acc[j] = _mm256_add_ps(acc[j],
                                   _mm256_mul_ps(qv[c], _mm256_loadu_ps(k + j * C * 8 + c * 8)));
        }
    }
    return reduce_keys8(acc);
}

// scores[p] for p in [0, n), n >= 8, dh = 8 * C: whole blocks of eight keys,
// the last one moved back to end at key n (its overlap recomputes keys
// already stored, to the same bits). Returns the max (NaN scores skipped, as
// std::max skips them on the scalar tier).
template <std::size_t C>
float scores_blocks(const float* q, const float* krows, float* scores, std::size_t n,
                    float scale) {
    __m256 qv[C];
#pragma GCC unroll 8
    for (std::size_t c = 0; c < C; ++c) qv[c] = _mm256_loadu_ps(q + 8 * c);
    const __m256 vscale = set1(scale);
    __m256 vmax = set1(-std::numeric_limits<float>::infinity());
    for (std::size_t p = 0;; p += 8) {
        p = std::min(p, n - 8);
        const __m256 s = _mm256_mul_ps(score_block<C>(qv, krows + p * C * 8), vscale);
        _mm256_storeu_ps(scores + p, s);
        vmax = _mm256_max_ps(s, vmax);  // max_ps returns vmax when s is NaN
        if (p + 8 == n) break;
    }
    return hmax8(vmax);
}

// Any n and dh: a block cut short by n repeats key n - 1 in its spare lanes
// (the loads stay inside the window, the spare lanes are never stored, and a
// repeated key cannot change the max), and a row tail of dh % 8 elements
// goes through masked loads.
float scores_any(const float* q, const float* krows, float* scores, std::size_t n,
                 std::size_t dh, float scale) {
    const std::size_t full = dh / 8;
    const std::size_t rem = dh % 8;
    const __m256i qmask = lane_mask(rem);
    const __m256 vscale = set1(scale);
    __m256 vmax = set1(-std::numeric_limits<float>::infinity());
    for (std::size_t p = 0; p < n; p += 8) {
        const std::size_t keys = std::min<std::size_t>(8, n - p);
        const float* k[8];
        const float* row = krows + p * dh;
        for (std::size_t j = 0; j < 8; ++j) {
            k[j] = row;
            if (j + 1 < keys) row += dh;
        }
        __m256 acc[8];
        if (full > 0) {
            const __m256 qv = _mm256_loadu_ps(q);
#pragma GCC unroll 8
            for (std::size_t j = 0; j < 8; ++j) acc[j] = _mm256_mul_ps(qv, _mm256_loadu_ps(k[j]));
        } else {
            const __m256 qv = _mm256_maskload_ps(q, qmask);
#pragma GCC unroll 8
            for (std::size_t j = 0; j < 8; ++j) {
                acc[j] = _mm256_mul_ps(qv, load_part(k[j], rem));
            }
        }
        for (std::size_t c = 1; c < full; ++c) {
            const __m256 qv = _mm256_loadu_ps(q + 8 * c);
#pragma GCC unroll 8
            for (std::size_t j = 0; j < 8; ++j) {
                acc[j] = _mm256_add_ps(acc[j], _mm256_mul_ps(qv, _mm256_loadu_ps(k[j] + 8 * c)));
            }
        }
        if (full > 0 && rem > 0) {
            const __m256 qv = _mm256_maskload_ps(q + 8 * full, qmask);
#pragma GCC unroll 8
            for (std::size_t j = 0; j < 8; ++j) {
                acc[j] = _mm256_add_ps(acc[j],
                                       _mm256_mul_ps(qv, load_part(k[j] + 8 * full, rem)));
            }
        }
        const __m256 s = _mm256_mul_ps(reduce_keys8(acc), vscale);
        if (keys == 8) {
            _mm256_storeu_ps(scores + p, s);
        } else {
            _mm256_maskstore_ps(scores + p, lane_mask(keys), s);
        }
        vmax = _mm256_max_ps(s, vmax);
    }
    return hmax8(vmax);
}

float scores_and_max(const float* q, const float* krows, float* scores, std::size_t n,
                     std::size_t dh, float scale) {
    if (n >= 8 && dh % 8 == 0) {
        switch (dh / 8) {
            case 1: return scores_blocks<1>(q, krows, scores, n, scale);
            case 2: return scores_blocks<2>(q, krows, scores, n, scale);
            case 4: return scores_blocks<4>(q, krows, scores, n, scale);
            case 8: return scores_blocks<8>(q, krows, scores, n, scale);
            default: break;
        }
    }
    return scores_any(q, krows, scores, n, dh, scale);
}

// ctx[0, 8 * NB) over one stripe of V columns (row stride ld), the context
// held in NB registers across all keys. When rem > 0 the last register holds
// rem valid columns.
template <std::size_t NB>
void mix_stripe(const float* e, float inv, const float* vrows, std::size_t ld, float* ctx,
                std::size_t n, std::size_t rem) {
    __m256 acc[NB];
#pragma GCC unroll 8
    for (std::size_t b = 0; b < NB; ++b) acc[b] = _mm256_setzero_ps();
    for (std::size_t p = 0; p < n; ++p) {
        const __m256 w = set1(e[p] * inv);
        const float* v = vrows + p * ld;
#pragma GCC unroll 8
        for (std::size_t b = 0; b + 1 < NB; ++b) {
            acc[b] = _mm256_add_ps(acc[b], _mm256_mul_ps(w, _mm256_loadu_ps(v + 8 * b)));
        }
        const float* last = v + 8 * (NB - 1);
        const __m256 x = rem == 0 ? _mm256_loadu_ps(last) : load_part(last, rem);
        acc[NB - 1] = _mm256_add_ps(acc[NB - 1], _mm256_mul_ps(w, x));
    }
#pragma GCC unroll 8
    for (std::size_t b = 0; b + 1 < NB; ++b) _mm256_storeu_ps(ctx + 8 * b, acc[b]);
    if (rem == 0) {
        _mm256_storeu_ps(ctx + 8 * (NB - 1), acc[NB - 1]);
    } else {
        _mm256_maskstore_ps(ctx + 8 * (NB - 1), lane_mask(rem), acc[NB - 1]);
    }
}

}  // namespace

void softmax_row_avx2(const float* in, float* out, std::size_t valid) {
    __m256 vmax = set1(-std::numeric_limits<float>::infinity());
    std::size_t j = 0;
    for (; j + 8 <= valid; j += 8) vmax = _mm256_max_ps(_mm256_loadu_ps(in + j), vmax);
    if (j < valid) {
        const __m256i m = lane_mask(valid - j);
        const __m256 x = _mm256_blendv_ps(vmax, _mm256_maskload_ps(in + j, m),
                                          _mm256_castsi256_ps(m));
        vmax = _mm256_max_ps(x, vmax);
    }
    const float total = exp_shifted_sum(in, out, valid, hmax8(vmax));
    const __m256 inv = set1(total > 0.0f ? 1.0f / total : 0.0f);
    for (j = 0; j + 8 <= valid; j += 8) {
        _mm256_storeu_ps(out + j, _mm256_mul_ps(_mm256_loadu_ps(out + j), inv));
    }
    if (j < valid) {
        const __m256i m = lane_mask(valid - j);
        _mm256_maskstore_ps(out + j, m, _mm256_mul_ps(_mm256_maskload_ps(out + j, m), inv));
    }
}

void attention_head_avx2(const float* q, const float* krows, const float* vrows, float* scores,
                         float* ctx, std::size_t n, std::size_t dh, float scale) {
    const float mx = scores_and_max(q, krows, scores, n, dh, scale);
    const float total = exp_shifted_sum(scores, scores, n, mx);
    const float inv = total > 0.0f ? 1.0f / total : 0.0f;
    // Stripes of up to 64 columns, each with its context in registers.
    for (std::size_t c0 = 0; c0 < dh; c0 += 64) {
        const std::size_t cols = std::min<std::size_t>(64, dh - c0);
        const std::size_t rem = cols % 8;
        const float* v = vrows + c0;
        float* out = ctx + c0;
        switch ((cols + 7) / 8) {
            case 1: mix_stripe<1>(scores, inv, v, dh, out, n, rem); break;
            case 2: mix_stripe<2>(scores, inv, v, dh, out, n, rem); break;
            case 3: mix_stripe<3>(scores, inv, v, dh, out, n, rem); break;
            case 4: mix_stripe<4>(scores, inv, v, dh, out, n, rem); break;
            case 5: mix_stripe<5>(scores, inv, v, dh, out, n, rem); break;
            case 6: mix_stripe<6>(scores, inv, v, dh, out, n, rem); break;
            case 7: mix_stripe<7>(scores, inv, v, dh, out, n, rem); break;
            default: mix_stripe<8>(scores, inv, v, dh, out, n, rem); break;
        }
    }
}

}  // namespace cpt::nn::detail

#else  // !(__AVX2__ && __FMA__)

namespace cpt::nn::detail {

namespace {
[[noreturn]] void missing() { CPT_CHECK(false, "AVX2 kernels were not compiled into this binary"); }
}  // namespace

void softmax_row_avx2(const float*, float*, std::size_t) { missing(); }
void attention_head_avx2(const float*, const float*, const float*, float*, float*, std::size_t,
                         std::size_t, float) {
    missing();
}

}  // namespace cpt::nn::detail

#endif
