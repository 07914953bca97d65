// The non-GEMM kernels of kernels.hpp, written once over an 8-lane trait V
// and instantiated by kernels_avx2.cpp (AVX2+FMA intrinsics) and kernels.cpp
// (eight floats in a struct, the scalar tier). Everything here has internal
// linkage, so each TU keeps its own copy built with its own ISA flags. Both
// TUs build with -ffp-contract=off: the only fused multiply-adds are the
// V::fma/fnma/fms and std::fma written here, so the tiers give the same bits.
//
// V provides, over Reg (8 floats), Mask and IReg (8 int32):
//   zero, set1, load, store, mask(count) (lanes [0, count)), load_masked (+0
//   outside the mask, nothing read there), store_masked, keep(m, v) and
//   drop(m, v) (+0 outside / inside m), blend(a, b, m) (b inside m);
//   add, sub, mul, div, sqrt; fma(a, b, c) = a*b + c, fnma = c - a*b and
//   fms = a*b - c, each rounded once; min(a, b) = a < b ? a : b and max(a, b)
//   = a > b ? a : b (vminps/vmaxps); lt(a, b) (ordered); round (to nearest
//   even); to_int (of whole lanes); bits_minus(a, b) (bit patterns, wrapping);
//   pow2(n) (exponent field n + 127);
//   hsum(v) = ((l0 + l4) + (l2 + l6)) + ((l1 + l5) + (l3 + l7)), hmax(v) the
//   same tree of max; sum_keys(acc[8]), whose lane j is ((a0 + a1) + (a2 +
//   a3)) + ((a4 + a5) + (a6 + a7)) over the lanes a of acc[j];
//   DReg (4 doubles): dzero, widen_lo/widen_hi (lanes 0-3 / 4-7), dadd, dfma
//   (only ever given widened floats, whose products are exact in double),
//   dhsum(v) = (d0 + d2) + (d1 + d3).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <iterator>
#include <limits>

#include "kernels.hpp"
#include "simd_detail.hpp"

namespace cpt::nn::detail {
namespace {

// ---- LayerNorm and bias ------------------------------------------------------

// Both reductions use hsum plus a scalar tail, so a row's statistics depend
// only on d.
template <class V>
void layer_norm_row(const float* in, float* out, const float* gain, const float* bias,
                    std::size_t d, float eps, float* stats2) {
    using Reg = typename V::Reg;
    Reg vsum = V::zero();
    std::size_t i = 0;
    for (; i + 8 <= d; i += 8) vsum = V::add(vsum, V::load(in + i));
    float sum = V::hsum(vsum);
    for (; i < d; ++i) sum += in[i];
    const float mean = sum / static_cast<float>(d);

    const Reg vmean = V::set1(mean);
    Reg vvar = V::zero();
    for (i = 0; i + 8 <= d; i += 8) {
        const Reg diff = V::sub(V::load(in + i), vmean);
        vvar = V::fma(diff, diff, vvar);
    }
    float var = V::hsum(vvar);
    for (; i < d; ++i) {
        const float diff = in[i] - mean;
        var = std::fma(diff, diff, var);
    }
    var /= static_cast<float>(d);
    const float inv = 1.0f / std::sqrt(var + eps);
    if (stats2 != nullptr) {
        stats2[0] = mean;
        stats2[1] = inv;
    }

    const Reg vinv = V::set1(inv);
    for (i = 0; i + 8 <= d; i += 8) {
        const Reg xhat = V::mul(V::sub(V::load(in + i), vmean), vinv);
        V::store(out + i, V::fma(xhat, V::load(gain + i), V::load(bias + i)));
    }
    for (; i < d; ++i) out[i] = std::fma((in[i] - mean) * inv, gain[i], bias[i]);
}

template <class V>
void add_bias_row(float* row, const float* bias, std::size_t d) {
    std::size_t i = 0;
    for (; i + 8 <= d; i += 8) V::store(row + i, V::add(V::load(row + i), V::load(bias + i)));
    for (; i < d; ++i) row[i] += bias[i];
}

template <class V>
void layer_norm_backward_row(const float* x, const float* gain, const float* g, float mean,
                             float inv, float* dx, std::size_t d) {
    using Reg = typename V::Reg;
    const Reg vmean = V::set1(mean);
    const Reg vinv = V::set1(inv);
    Reg vsum_gy = V::zero();
    Reg vsum_gyx = V::zero();
    std::size_t i = 0;
    for (; i + 8 <= d; i += 8) {
        const Reg gy = V::mul(V::load(g + i), V::load(gain + i));
        const Reg xhat = V::mul(V::sub(V::load(x + i), vmean), vinv);
        vsum_gy = V::add(vsum_gy, gy);
        vsum_gyx = V::fma(gy, xhat, vsum_gyx);
    }
    float sum_gy = V::hsum(vsum_gy);
    float sum_gyx = V::hsum(vsum_gyx);
    for (; i < d; ++i) {
        const float gy = g[i] * gain[i];
        const float xhat = (x[i] - mean) * inv;
        sum_gy += gy;
        sum_gyx = std::fma(gy, xhat, sum_gyx);
    }
    const float dn = static_cast<float>(d);
    const float scl = inv / dn;
    const Reg vdn = V::set1(dn);
    const Reg vsgy = V::set1(sum_gy);
    const Reg vsgyx = V::set1(sum_gyx);
    const Reg vscl = V::set1(scl);
    for (i = 0; i + 8 <= d; i += 8) {
        const Reg gy = V::mul(V::load(g + i), V::load(gain + i));
        const Reg xhat = V::mul(V::sub(V::load(x + i), vmean), vinv);
        // d*gy - sum_gy - xhat*sum_gy_xhat
        const Reg core = V::fnma(xhat, vsgyx, V::fms(vdn, gy, vsgy));
        V::store(dx + i, V::fma(vscl, core, V::load(dx + i)));
    }
    for (; i < d; ++i) {
        const float gy = g[i] * gain[i];
        const float xhat = (x[i] - mean) * inv;
        const float core = std::fma(-xhat, sum_gyx, std::fma(dn, gy, -sum_gy));
        dx[i] = std::fma(scl, core, dx[i]);
    }
}

// ---- GELU ----------------------------------------------------------------------
// gelu(x) = 0.5x(1 + tanh(u)) = x * sigmoid(2u) = x / (1 + e), with
// u = sqrt(2/pi)(x + 0.044715x^3) and e = exp(-2u). Row tails run the same
// 8-lane formula on masked loads, so an element's bits never depend on its
// column.

// e for the GELU argument x, as p * 2^n (the forward fuses that product into
// 1 + e): exp_addmul's steps with n from round and fused steps, and a NaN
// clamped to kExpMin.
template <class V>
void gelu_exp(typename V::Reg x, typename V::Reg& p, typename V::Reg& two_n) {
    using Reg = typename V::Reg;
    using namespace kernels;
    const Reg ax = V::mul(V::set1(kGeluA), x);
    const Reg u = V::mul(V::set1(kGeluC), V::fma(V::mul(ax, x), x, x));
    Reg y = V::mul(V::set1(-2.0f), u);
    y = V::min(V::max(y, V::set1(kExpMin)), V::set1(kExpMax));
    const Reg n = V::round(V::mul(y, V::set1(kExpLog2e)));
    Reg r = V::fnma(n, V::set1(kExpLn2Hi), y);
    r = V::fnma(n, V::set1(kExpLn2Lo), r);
    p = V::set1(kExpPoly[0]);
    for (std::size_t c = 1; c < std::size(kExpPoly); ++c) p = V::fma(p, r, V::set1(kExpPoly[c]));
    p = V::add(V::fma(p, V::mul(r, r), r), V::set1(1.0f));
    two_n = V::pow2(V::to_int(n));
}

template <class V>
typename V::Reg gelu(typename V::Reg x) {
    typename V::Reg p, two_n;
    gelu_exp<V>(x, p, two_n);
    return V::div(x, V::fma(p, two_n, V::set1(1.0f)));
}

// g * gelu'(x), with s = sigmoid(2u) = 1 / (1 + e) and 1 - s = e * s:
// gelu'(x) = s + 2x s (1 - s) du, du = sqrt(2/pi)(1 + 3 * 0.044715x^2) —
// gelu_grad_scalar's formula with 0.5(1 + t) = s and 1 - t^2 = 4s(1 - s).
template <class V>
typename V::Reg gelu_grad_mul(typename V::Reg x, typename V::Reg g) {
    using Reg = typename V::Reg;
    using namespace kernels;
    Reg p, two_n;
    gelu_exp<V>(x, p, two_n);
    const Reg e = V::mul(p, two_n);
    const Reg s = V::div(V::set1(1.0f), V::add(V::set1(1.0f), e));
    const Reg du =
        V::mul(V::set1(kGeluC), V::fma(V::mul(V::set1(3.0f * kGeluA), x), x, V::set1(1.0f)));
    const Reg two_xs = V::mul(V::mul(V::set1(2.0f), x), s);
    return V::mul(g, V::fma(V::mul(two_xs, V::mul(e, s)), du, s));
}

template <class V>
void bias_gelu_row(float* row, const float* bias, std::size_t d) {
    std::size_t i = 0;
    for (; i + 8 <= d; i += 8) {
        V::store(row + i, gelu<V>(V::add(V::load(row + i), V::load(bias + i))));
    }
    if (i == d) return;
    const auto m = V::mask(d - i);
    const auto x = V::add(V::load_masked(row + i, m), V::load_masked(bias + i, m));
    V::store_masked(row + i, gelu<V>(x), m);
}

template <class V>
void bias_gelu_backward_row(const float* x, const float* bias, const float* g, float* dx,
                            float* scratch, std::size_t d) {
    using Reg = typename V::Reg;
    std::size_t i = 0;
    for (; i + 8 <= d; i += 8) {
        const Reg t = gelu_grad_mul<V>(V::add(V::load(x + i), V::load(bias + i)), V::load(g + i));
        V::store(scratch + i, t);
        if (dx != nullptr) V::store(dx + i, V::add(V::load(dx + i), t));
    }
    if (i == d) return;
    const auto m = V::mask(d - i);
    const Reg u = V::add(V::load_masked(x + i, m), V::load_masked(bias + i, m));
    const Reg t = gelu_grad_mul<V>(u, V::load_masked(g + i, m));
    V::store_masked(scratch + i, t, m);
    if (dx != nullptr) V::store_masked(dx + i, V::add(V::load_masked(dx + i, m), t), m);
}

// ---- Softmax ---------------------------------------------------------------------

// kernels::exp_addmul on eight lanes.
template <class V>
typename V::Reg exp_addmul(typename V::Reg x) {
    using Reg = typename V::Reg;
    using namespace kernels;
    const auto below = V::lt(x, V::set1(kExpMin));
    x = V::min(V::set1(kExpMax), x);  // min returns x when x is NaN
    const Reg t = V::add(V::mul(x, V::set1(kExpLog2e)), V::set1(kExpRound));
    const Reg n = V::sub(t, V::set1(kExpRound));
    Reg r = V::sub(x, V::mul(n, V::set1(kExpLn2Hi)));
    r = V::sub(r, V::mul(n, V::set1(kExpLn2Lo)));
    Reg p = V::set1(kExpPoly[0]);
    for (std::size_t c = 1; c < std::size(kExpPoly); ++c) {
        p = V::add(V::mul(p, r), V::set1(kExpPoly[c]));
    }
    p = V::add(V::add(V::mul(p, V::mul(r, r)), r), V::set1(1.0f));
    // t's low mantissa bits hold n.
    return V::drop(below, V::mul(p, V::pow2(V::bits_minus(t, V::set1(kExpRound)))));
}

// softmax_row's exp and normaliser: e_j = exp(in_j - mx) into out, summed
// into eight lane partials (lane j mod 8) that hsum adds. Returns the total.
template <class V>
float exp_shifted_sum(const float* in, float* out, std::size_t n, float mx) {
    using Reg = typename V::Reg;
    const Reg vmx = V::set1(mx);
    Reg lanes = V::zero();
    std::size_t j = 0;
    for (; j + 8 <= n; j += 8) {
        const Reg e = exp_addmul<V>(V::sub(V::load(in + j), vmx));
        V::store(out + j, e);
        lanes = V::add(lanes, e);
    }
    if (j < n) {
        const auto m = V::mask(n - j);
        const Reg e = V::keep(m, exp_addmul<V>(V::sub(V::load_masked(in + j, m), vmx)));
        V::store_masked(out + j, e, m);
        lanes = V::add(lanes, e);
    }
    return V::hsum(lanes);
}

// The first `valid` entries only; kernels::softmax_row zeroes the rest.
template <class V>
void softmax_row(const float* in, float* out, std::size_t valid) {
    using Reg = typename V::Reg;
    Reg vmax = V::set1(-std::numeric_limits<float>::infinity());
    std::size_t j = 0;
    for (; j + 8 <= valid; j += 8) vmax = V::max(V::load(in + j), vmax);
    if (j < valid) {
        const auto m = V::mask(valid - j);
        vmax = V::max(V::blend(vmax, V::load_masked(in + j, m), m), vmax);
    }
    const float total = exp_shifted_sum<V>(in, out, valid, V::hmax(vmax));
    const Reg inv = V::set1(total > 0.0f ? 1.0f / total : 0.0f);
    for (j = 0; j + 8 <= valid; j += 8) V::store(out + j, V::mul(V::load(out + j), inv));
    if (j < valid) {
        const auto m = V::mask(valid - j);
        V::store_masked(out + j, V::mul(V::load_masked(out + j, m), inv), m);
    }
}

// dx += y * (g - dot(y, g)). Rows under 8 entries run
// softmax_backward_row_ref's serial order; longer ones dot in two 8-lane
// fused accumulators over 16-element steps, an 8-element step, hsum, then
// std::fma for the tail.
template <class V>
void softmax_backward_row(const float* y, const float* g, float* dx, std::size_t n) {
    using Reg = typename V::Reg;
    if (n < 8) {
        kernels::softmax_backward_row_ref(y, g, dx, n);
        return;
    }
    Reg acc0 = V::zero();
    Reg acc1 = V::zero();
    std::size_t i = 0;
    for (; i + 16 <= n; i += 16) {
        acc0 = V::fma(V::load(y + i), V::load(g + i), acc0);
        acc1 = V::fma(V::load(y + i + 8), V::load(g + i + 8), acc1);
    }
    for (; i + 8 <= n; i += 8) acc0 = V::fma(V::load(y + i), V::load(g + i), acc0);
    float dot = V::hsum(V::add(acc0, acc1));
    for (; i < n; ++i) dot = std::fma(y[i], g[i], dot);
    const Reg vdot = V::set1(dot);
    for (i = 0; i + 8 <= n; i += 8) {
        V::store(dx + i, V::fma(V::load(y + i), V::sub(V::load(g + i), vdot), V::load(dx + i)));
    }
    for (; i < n; ++i) dx[i] = std::fma(y[i], g[i] - dot, dx[i]);
}

// ---- Decode attention --------------------------------------------------------------
// Scores: lane l of key p sums q_i * k_i over i = l (mod 8) in ascending i,
// the first product as is (i >= dh gives 0 * 0); sum_keys reduces the lanes
// and the sum is multiplied by the scale. Then softmax_row's exp and
// normaliser, and the mix: ctx_i = +0, then ctx_i + w_p * v_p,i in ascending
// p. Key and head tails go through masked loads and stores.

// Eight keys' scores before the scale, key j's row at k + j * C * 8 (C whole
// vectors per row): the keys of one block are consecutive cache rows, so
// every load is the block base plus a constant.
template <class V, std::size_t C>
typename V::Reg score_block(const typename V::Reg* qv, const float* k) {
    typename V::Reg acc[8];
#pragma GCC unroll 8
    for (std::size_t j = 0; j < 8; ++j) acc[j] = V::mul(qv[0], V::load(k + j * C * 8));
#pragma GCC unroll 8
    for (std::size_t c = 1; c < C; ++c) {
#pragma GCC unroll 8
        for (std::size_t j = 0; j < 8; ++j) {
            acc[j] = V::add(acc[j], V::mul(qv[c], V::load(k + j * C * 8 + c * 8)));
        }
    }
    return V::sum_keys(acc);
}

// scores[p] for p in [0, n), n >= 8, dh = 8 * C: whole blocks of eight keys,
// the last one moved back to end at key n (its overlap recomputes keys
// already stored, to the same bits). Returns the max (NaN scores skipped).
template <class V, std::size_t C>
float scores_blocks(const float* q, const float* krows, float* scores, std::size_t n,
                    float scale) {
    using Reg = typename V::Reg;
    Reg qv[C];
#pragma GCC unroll 8
    for (std::size_t c = 0; c < C; ++c) qv[c] = V::load(q + 8 * c);
    const Reg vscale = V::set1(scale);
    Reg vmax = V::set1(-std::numeric_limits<float>::infinity());
    for (std::size_t p = 0;; p += 8) {
        p = std::min(p, n - 8);
        const Reg s = V::mul(score_block<V, C>(qv, krows + p * C * 8), vscale);
        V::store(scores + p, s);
        vmax = V::max(s, vmax);  // max returns vmax when s is NaN
        if (p + 8 == n) break;
    }
    return V::hmax(vmax);
}

// Any n and dh: a block cut short by n repeats key n - 1 in its spare lanes
// (the loads stay inside the window, the spare lanes are never stored, and a
// repeated key cannot change the max), and a row tail of dh % 8 elements
// goes through masked loads.
template <class V>
float scores_any(const float* q, const float* krows, float* scores, std::size_t n,
                 std::size_t dh, float scale) {
    using Reg = typename V::Reg;
    const std::size_t full = dh / 8;
    const std::size_t rem = dh % 8;
    const auto qmask = V::mask(rem);
    const Reg vscale = V::set1(scale);
    Reg vmax = V::set1(-std::numeric_limits<float>::infinity());
    for (std::size_t p = 0; p < n; p += 8) {
        const std::size_t keys = std::min<std::size_t>(8, n - p);
        const float* k[8];
        for (std::size_t j = 0; j < 8; ++j) k[j] = krows + (p + std::min(j, keys - 1)) * dh;
        Reg acc[8];
        if (full > 0) {
            const Reg qv = V::load(q);
#pragma GCC unroll 8
            for (std::size_t j = 0; j < 8; ++j) acc[j] = V::mul(qv, V::load(k[j]));
        } else {
            const Reg qv = V::load_masked(q, qmask);
#pragma GCC unroll 8
            for (std::size_t j = 0; j < 8; ++j) acc[j] = V::mul(qv, V::load_masked(k[j], qmask));
        }
        for (std::size_t c = 1; c < full; ++c) {
            const Reg qv = V::load(q + 8 * c);
#pragma GCC unroll 8
            for (std::size_t j = 0; j < 8; ++j) {
                acc[j] = V::add(acc[j], V::mul(qv, V::load(k[j] + 8 * c)));
            }
        }
        if (full > 0 && rem > 0) {
            const Reg qv = V::load_masked(q + 8 * full, qmask);
#pragma GCC unroll 8
            for (std::size_t j = 0; j < 8; ++j) {
                acc[j] = V::add(acc[j], V::mul(qv, V::load_masked(k[j] + 8 * full, qmask)));
            }
        }
        const Reg s = V::mul(V::sum_keys(acc), vscale);
        if (keys == 8) {
            V::store(scores + p, s);
        } else {
            V::store_masked(scores + p, s, V::mask(keys));
        }
        vmax = V::max(s, vmax);
    }
    return V::hmax(vmax);
}

template <class V>
float scores_and_max(const float* q, const float* krows, float* scores, std::size_t n,
                     std::size_t dh, float scale) {
    if (n >= 8 && dh % 8 == 0) {
        switch (dh / 8) {
            case 1: return scores_blocks<V, 1>(q, krows, scores, n, scale);
            case 2: return scores_blocks<V, 2>(q, krows, scores, n, scale);
            case 4: return scores_blocks<V, 4>(q, krows, scores, n, scale);
            case 8: return scores_blocks<V, 8>(q, krows, scores, n, scale);
            default: break;
        }
    }
    return scores_any<V>(q, krows, scores, n, dh, scale);
}

// ctx[0, 8 * NB) over one stripe of V columns (row stride ld), the context
// held in NB registers across all keys. When rem > 0 the last register holds
// rem valid columns.
template <class V, std::size_t NB>
void mix_stripe(const float* e, float inv, const float* vrows, std::size_t ld, float* ctx,
                std::size_t n, std::size_t rem) {
    using Reg = typename V::Reg;
    const auto last_mask = V::mask(rem);
    Reg acc[NB];
#pragma GCC unroll 8
    for (std::size_t b = 0; b < NB; ++b) acc[b] = V::zero();
    for (std::size_t p = 0; p < n; ++p) {
        const Reg w = V::set1(e[p] * inv);
        const float* v = vrows + p * ld;
#pragma GCC unroll 8
        for (std::size_t b = 0; b + 1 < NB; ++b) {
            acc[b] = V::add(acc[b], V::mul(w, V::load(v + 8 * b)));
        }
        const float* last = v + 8 * (NB - 1);
        const Reg x = rem == 0 ? V::load(last) : V::load_masked(last, last_mask);
        acc[NB - 1] = V::add(acc[NB - 1], V::mul(w, x));
    }
#pragma GCC unroll 8
    for (std::size_t b = 0; b + 1 < NB; ++b) V::store(ctx + 8 * b, acc[b]);
    if (rem == 0) {
        V::store(ctx + 8 * (NB - 1), acc[NB - 1]);
    } else {
        V::store_masked(ctx + 8 * (NB - 1), acc[NB - 1], last_mask);
    }
}

template <class V>
void attention_head(const float* q, const float* krows, const float* vrows, float* scores,
                    float* ctx, std::size_t n, std::size_t dh, float scale) {
    const float mx = scores_and_max<V>(q, krows, scores, n, dh, scale);
    const float total = exp_shifted_sum<V>(scores, scores, n, mx);
    const float inv = total > 0.0f ? 1.0f / total : 0.0f;
    // Stripes of up to 64 columns, each with its context in registers.
    for (std::size_t c0 = 0; c0 < dh; c0 += 64) {
        const std::size_t cols = std::min<std::size_t>(64, dh - c0);
        const std::size_t rem = cols % 8;
        const float* v = vrows + c0;
        float* out = ctx + c0;
        switch ((cols + 7) / 8) {
            case 1: mix_stripe<V, 1>(scores, inv, v, dh, out, n, rem); break;
            case 2: mix_stripe<V, 2>(scores, inv, v, dh, out, n, rem); break;
            case 3: mix_stripe<V, 3>(scores, inv, v, dh, out, n, rem); break;
            case 4: mix_stripe<V, 4>(scores, inv, v, dh, out, n, rem); break;
            case 5: mix_stripe<V, 5>(scores, inv, v, dh, out, n, rem); break;
            case 6: mix_stripe<V, 6>(scores, inv, v, dh, out, n, rem); break;
            case 7: mix_stripe<V, 7>(scores, inv, v, dh, out, n, rem); break;
            default: mix_stripe<V, 8>(scores, inv, v, dh, out, n, rem); break;
        }
    }
}

// ---- Optimizer -------------------------------------------------------------------

// sum(x[i]^2) in double: two 4-double accumulators fed by the widened halves
// of each 8-float block, dhsum, then a serial tail. The float*float products
// are exact in double, so the tail's multiply and add give the fused bits.
template <class V>
double sqnorm(const float* x, std::size_t n) {
    using DReg = typename V::DReg;
    DReg acc0 = V::dzero();
    DReg acc1 = V::dzero();
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const auto v = V::load(x + i);
        const DReg lo = V::widen_lo(v);
        const DReg hi = V::widen_hi(v);
        acc0 = V::dfma(lo, lo, acc0);
        acc1 = V::dfma(hi, hi, acc1);
    }
    double s = V::dhsum(V::dadd(acc0, acc1));
    for (; i < n; ++i) s += static_cast<double>(x[i]) * x[i];
    return s;
}

template <class V>
void adam_update(float* w, const float* g, float* m, float* v, std::size_t n, float lr,
                 float beta1, float beta2, float eps, float weight_decay, float bc1, float bc2,
                 float gscale) {
    using Reg = typename V::Reg;
    const Reg vb1 = V::set1(beta1);
    const Reg vomb1 = V::set1(1.0f - beta1);
    const Reg vb2 = V::set1(beta2);
    const Reg vomb2 = V::set1(1.0f - beta2);
    const Reg vgs = V::set1(gscale);
    const Reg vbc1 = V::set1(bc1);
    const Reg vbc2 = V::set1(bc2);
    const Reg veps = V::set1(eps);
    const Reg vwd = V::set1(weight_decay);
    const Reg vlr = V::set1(lr);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const Reg gp = V::mul(V::load(g + i), vgs);
        const Reg mv = V::fma(vb1, V::load(m + i), V::mul(vomb1, gp));
        const Reg vv = V::fma(vb2, V::load(v + i), V::mul(vomb2, V::mul(gp, gp)));
        V::store(m + i, mv);
        V::store(v + i, vv);
        const Reg mhat = V::div(mv, vbc1);
        const Reg vhat = V::div(vv, vbc2);
        const Reg denom = V::add(V::sqrt(vhat), veps);
        const Reg wv = V::load(w + i);
        const Reg upd = V::fma(vwd, wv, V::div(mhat, denom));
        V::store(w + i, V::fnma(vlr, upd, wv));
    }
    for (; i < n; ++i) {
        const float gp = g[i] * gscale;
        m[i] = std::fma(beta1, m[i], (1.0f - beta1) * gp);
        v[i] = std::fma(beta2, v[i], (1.0f - beta2) * gp * gp);
        const float mhat = m[i] / bc1;
        const float vhat = v[i] / bc2;
        const float upd = std::fma(weight_decay, w[i], mhat / (std::sqrt(vhat) + eps));
        w[i] = std::fma(-lr, upd, w[i]);
    }
}

// The ten kernels of one tier, for kernels.cpp's dispatch.
template <class V>
constexpr KernelSet kernel_set() {
    return {layer_norm_row<V>,          add_bias_row<V>,           bias_gelu_row<V>,
            bias_gelu_backward_row<V>,  softmax_backward_row<V>,   layer_norm_backward_row<V>,
            sqnorm<V>,                  adam_update<V>,            softmax_row<V>,
            attention_head<V>};
}

}  // namespace
}  // namespace cpt::nn::detail
