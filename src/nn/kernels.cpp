#include "kernels.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>

#include "kernels_inl.hpp"
#include "util/cpu.hpp"

namespace cpt::nn::detail {
namespace {

// The scalar tier's trait for kernels_inl.hpp: eight lanes in an array, each
// op one IEEE operation per lane (one std::fma per lane for each fused float
// op) in the order Avx2Lanes' instructions define. Structs, not vector types, so
// the baseline ISA passes them by value without an ABI change.
struct Lanes8 {
    struct Reg {
        float v[8];
    };
    struct Mask {
        bool v[8];
    };
    struct IReg {
        std::uint32_t v[8];
    };
    struct DReg {
        double v[4];
    };
    // Lane l of the result is f(l).
    template <class R = Reg, class F>
    static R map(F f) {
        R r;
        for (std::size_t l = 0; l < 8; ++l) r.v[l] = f(l);
        return r;
    }
    template <class F>
    static Reg zip(Reg a, Reg b, F f) {
        return map([&](auto l) { return f(a.v[l], b.v[l]); });
    }
    static Reg zero() { return set1(0.0f); }
    static Reg set1(float x) { return map([&](auto) { return x; }); }
    static Reg load(const float* p) { return map([&](auto l) { return p[l]; }); }
    static void store(float* p, Reg a) { std::copy_n(a.v, 8, p); }
    static Mask mask(std::size_t count) { return map<Mask>([&](auto l) { return l < count; }); }
    static Reg load_masked(const float* p, Mask m) {
        return map([&](auto l) { return m.v[l] ? p[l] : 0.0f; });
    }
    static void store_masked(float* p, Reg a, Mask m) {
        for (std::size_t l = 0; l < 8; ++l) {
            if (m.v[l]) p[l] = a.v[l];
        }
    }
    static Reg keep(Mask m, Reg a) { return map([&](auto l) { return m.v[l] ? a.v[l] : 0.0f; }); }
    static Reg drop(Mask m, Reg a) { return map([&](auto l) { return m.v[l] ? 0.0f : a.v[l]; }); }
    static Reg blend(Reg a, Reg b, Mask m) {
        return map([&](auto l) { return m.v[l] ? b.v[l] : a.v[l]; });
    }
    static Reg add(Reg a, Reg b) { return zip(a, b, std::plus<>()); }
    static Reg sub(Reg a, Reg b) { return zip(a, b, std::minus<>()); }
    static Reg mul(Reg a, Reg b) { return zip(a, b, std::multiplies<>()); }
    static Reg div(Reg a, Reg b) { return zip(a, b, std::divides<>()); }
    static Reg sqrt(Reg a) { return map([&](auto l) { return std::sqrt(a.v[l]); }); }
    static Reg fma(Reg a, Reg b, Reg c) {
        return map([&](auto l) { return std::fma(a.v[l], b.v[l], c.v[l]); });
    }
    static Reg fnma(Reg a, Reg b, Reg c) { return fma(map([&](auto l) { return -a.v[l]; }), b, c); }
    static Reg fms(Reg a, Reg b, Reg c) { return fma(a, b, map([&](auto l) { return -c.v[l]; })); }
    // vminps/vmaxps: the second operand unless the first compares below/above.
    static float min1(float x, float y) { return x < y ? x : y; }
    static float max1(float x, float y) { return x > y ? x : y; }
    static Reg min(Reg a, Reg b) { return zip(a, b, min1); }
    static Reg max(Reg a, Reg b) { return zip(a, b, max1); }
    static Mask lt(Reg a, Reg b) { return map<Mask>([&](auto l) { return a.v[l] < b.v[l]; }); }
    static Reg round(Reg a) { return map([&](auto l) { return std::nearbyint(a.v[l]); }); }
    static IReg to_int(Reg a) {
        return map<IReg>([&](auto l) { return static_cast<std::int32_t>(a.v[l]); });
    }
    static IReg bits_minus(Reg a, Reg b) {
        return map<IReg>([&](auto l) {
            return std::bit_cast<std::uint32_t>(a.v[l]) - std::bit_cast<std::uint32_t>(b.v[l]);
        });
    }
    static Reg pow2(IReg n) {
        return map([&](auto l) { return std::bit_cast<float>((n.v[l] + 127u) << 23); });
    }
    static float hsum(Reg a) {
        const float* l = a.v;
        return ((l[0] + l[4]) + (l[2] + l[6])) + ((l[1] + l[5]) + (l[3] + l[7]));
    }
    static float hmax(Reg a) {
        const float* l = a.v;
        return max1(max1(max1(l[0], l[4]), max1(l[2], l[6])),
                    max1(max1(l[1], l[5]), max1(l[3], l[7])));
    }
    static Reg sum_keys(const Reg* acc) {
        return map([&](auto j) {
            const float* a = acc[j].v;
            return ((a[0] + a[1]) + (a[2] + a[3])) + ((a[4] + a[5]) + (a[6] + a[7]));
        });
    }
    static DReg dzero() { return {}; }
    static DReg widen_lo(Reg a) { return {a.v[0], a.v[1], a.v[2], a.v[3]}; }
    static DReg widen_hi(Reg a) { return {a.v[4], a.v[5], a.v[6], a.v[7]}; }
    static DReg dadd(DReg a, DReg b) {
        return {a.v[0] + b.v[0], a.v[1] + b.v[1], a.v[2] + b.v[2], a.v[3] + b.v[3]};
    }
    // The products are of widened floats, so exact in double: a multiply
    // then an add (no contraction in this TU) gives the fused bits without
    // a libm fma call per lane.
    static DReg dfma(DReg a, DReg b, DReg c) {
        DReg r;
        for (std::size_t l = 0; l < 4; ++l) r.v[l] = a.v[l] * b.v[l] + c.v[l];
        return r;
    }
    static double dhsum(DReg a) { return (a.v[0] + a.v[2]) + (a.v[1] + a.v[3]); }
};

}  // namespace
}  // namespace cpt::nn::detail

namespace cpt::nn::kernels {

namespace {

// The active tier's kernels: the avx2 set or the same bodies over Lanes8.
// The avx2 set is looked up once, so a call costs no more than the tier load.
const detail::KernelSet& tier_kernels() {
    static constexpr detail::KernelSet kScalar = detail::kernel_set<detail::Lanes8>();
    if (util::active_simd_tier() != util::SimdTier::kAvx2) return kScalar;
    static const detail::KernelSet& avx2 = detail::kernels_avx2();
    return avx2;
}

}  // namespace

float exp_addmul(float x) {
    using detail::Lanes8;
    return detail::exp_addmul<Lanes8>(Lanes8::set1(x)).v[0];
}

void attention_head(const float* q, const float* krows, const float* vrows, float* scores,
                    float* ctx, std::size_t n, std::size_t dh, float scale) {
    tier_kernels().attention_head(q, krows, vrows, scores, ctx, n, dh, scale);
}

void softmax_row(const float* in, float* out, std::size_t len, std::size_t valid) {
    tier_kernels().softmax_row(in, out, valid);
    for (std::size_t j = valid; j < len; ++j) out[j] = 0.0f;
}

void softmax_rows(const float* in, float* out, std::size_t rows, std::size_t d) {
    for (std::size_t r = 0; r < rows; ++r) softmax_row(in + r * d, out + r * d, d, d);
}

void layer_norm_row(const float* in, float* out, const float* gain, const float* bias,
                    std::size_t d, float eps, float* stats2) {
    tier_kernels().layer_norm_row(in, out, gain, bias, d, eps, stats2);
}

void layer_norm_rows(const float* in, float* out, const float* gain, const float* bias,
                     std::size_t rows, std::size_t d, float eps, float* stats2) {
    for (std::size_t r = 0; r < rows; ++r) {
        layer_norm_row(in + r * d, out + r * d, gain, bias, d, eps,
                       stats2 != nullptr ? stats2 + r * 2 : nullptr);
    }
}

void fill_bias_rows(float* y, const float* bias, std::size_t rows, std::size_t d) {
    for (std::size_t r = 0; r < rows; ++r) std::copy_n(bias, d, y + r * d);
}

void add_bias_row(float* row, const float* bias, std::size_t d) {
    tier_kernels().add_bias_row(row, bias, d);
}

void add_bias_rows(float* dst, const float* bias, std::size_t rows, std::size_t d) {
    for (std::size_t r = 0; r < rows; ++r) add_bias_row(dst + r * d, bias, d);
}

void bias_gelu_row(float* row, const float* bias, std::size_t d) {
    tier_kernels().bias_gelu_row(row, bias, d);
}

void bias_gelu_rows(float* y, const float* bias, std::size_t rows, std::size_t d) {
    for (std::size_t r = 0; r < rows; ++r) bias_gelu_row(y + r * d, bias, d);
}

// ---- Backward kernels (training path) ----------------------------------------

void softmax_backward_row_ref(const float* y, const float* g, float* dx, std::size_t valid) {
    float dot = 0.0f;
    for (std::size_t j = 0; j < valid; ++j) dot += g[j] * y[j];
    for (std::size_t j = 0; j < valid; ++j) dx[j] += y[j] * (g[j] - dot);
}

void softmax_backward_rows(const float* y, const float* g, float* dx, std::size_t rows,
                           std::size_t d) {
    const auto row = tier_kernels().softmax_backward_row;
    for (std::size_t r = 0; r < rows; ++r) row(y + r * d, g + r * d, dx + r * d, d);
}

void softmax_backward_causal(const float* y, const float* g, float* dx, std::size_t mats,
                             std::size_t t) {
    const auto row = tier_kernels().softmax_backward_row;
    for (std::size_t m = 0; m < mats; ++m) {
        for (std::size_t r = 0; r < t; ++r) {
            const std::size_t off = (m * t + r) * t;
            row(y + off, g + off, dx + off, r + 1);
        }
    }
}

void softmax_xent_rows(const float* logits, float* probs, const int* targets, int ignore_index,
                       double* rowloss, std::size_t rows, std::size_t c) {
    for (std::size_t r = 0; r < rows; ++r) {
        softmax_row(logits + r * c, probs + r * c, c, c);
        const int tgt = targets[r];
        // float log, matching the historical serial loss loop bit-for-bit
        // once the caller sums rowloss in ascending row order.
        rowloss[r] =
            tgt == ignore_index
                ? 0.0
                : -static_cast<double>(
                      std::log(std::max(probs[r * c + static_cast<std::size_t>(tgt)], 1e-12f)));
    }
}

void xent_backward_row_ref(const float* probs, int target, float* dx, float gscale,
                           std::size_t c) {
    for (std::size_t j = 0; j < c; ++j) {
        const float onehot = (static_cast<std::size_t>(target) == j) ? 1.0f : 0.0f;
        dx[j] += gscale * (probs[j] - onehot);
    }
}

void xent_backward_rows(const float* probs, const int* targets, int ignore_index, float* dx,
                        float gscale, std::size_t rows, std::size_t c) {
    for (std::size_t r = 0; r < rows; ++r) {
        if (targets[r] == ignore_index) continue;
        xent_backward_row_ref(probs + r * c, targets[r], dx + r * c, gscale, c);
    }
}

void layer_norm_backward_row_ref(const float* x, const float* gain, const float* g, float mean,
                                 float inv, float* dx, std::size_t d) {
    float sum_gy = 0.0f;
    float sum_gy_xhat = 0.0f;
    for (std::size_t j = 0; j < d; ++j) {
        const float gy = g[j] * gain[j];
        const float xhat = (x[j] - mean) * inv;
        sum_gy += gy;
        sum_gy_xhat += gy * xhat;
    }
    const float dn = static_cast<float>(d);
    for (std::size_t j = 0; j < d; ++j) {
        const float gy = g[j] * gain[j];
        const float xhat = (x[j] - mean) * inv;
        dx[j] += inv / dn * (dn * gy - sum_gy - xhat * sum_gy_xhat);
    }
}

void layer_norm_backward_rows(const float* x, const float* gain, const float* g,
                              const float* stats2, float* dx, float* dgain, float* dbias,
                              std::size_t rows, std::size_t d) {
    if (dx != nullptr) {
        const auto row = tier_kernels().layer_norm_backward_row;
        for (std::size_t r = 0; r < rows; ++r) {
            row(x + r * d, gain, g + r * d, stats2[r * 2], stats2[r * 2 + 1], dx + r * d, d);
        }
    }
    if (dgain == nullptr && dbias == nullptr) return;
    // dgain/dbias reduce across rows: each column accumulates in ascending row
    // order directly into the destination, the historical serial order.
    for (std::size_t r = 0; r < rows; ++r) {
        const float mean = stats2[r * 2];
        const float inv = stats2[r * 2 + 1];
        const float* xrow = x + r * d;
        const float* grow = g + r * d;
        if (dgain != nullptr) {
            for (std::size_t j = 0; j < d; ++j) {
                dgain[j] += grow[j] * ((xrow[j] - mean) * inv);
            }
        }
        if (dbias != nullptr) {
            for (std::size_t j = 0; j < d; ++j) dbias[j] += grow[j];
        }
    }
}

void col_sum_rows(const float* src, float* dst, std::size_t rows, std::size_t d) {
    // Row-outer (cache-friendly), ascending r per column: the same
    // per-column accumulation order as the historical serial double loop.
    for (std::size_t r = 0; r < rows; ++r) {
        const float* row = src + r * d;
        for (std::size_t j = 0; j < d; ++j) dst[j] += row[j];
    }
}

void bias_gelu_backward_rows(const float* x, const float* bias, const float* g, float* dx,
                             float* scratch, std::size_t rows, std::size_t d) {
    const auto row = tier_kernels().bias_gelu_backward_row;
    for (std::size_t r = 0; r < rows; ++r) {
        row(x + r * d, bias, g + r * d, dx != nullptr ? dx + r * d : nullptr, scratch + r * d, d);
    }
}

// ---- Optimizer kernels --------------------------------------------------------

double sqnorm(const float* x, std::size_t n, double carry) {
    return carry + tier_kernels().sqnorm(x, n);
}

void adam_update_ref(float* w, const float* g, float* m, float* v, std::size_t n, float lr,
                     float beta1, float beta2, float eps, float weight_decay, float bc1,
                     float bc2, float gscale) {
    for (std::size_t j = 0; j < n; ++j) {
        const float gj = g[j] * gscale;
        m[j] = beta1 * m[j] + (1.0f - beta1) * gj;
        v[j] = beta2 * v[j] + (1.0f - beta2) * gj * gj;
        const float mhat = m[j] / bc1;
        const float vhat = v[j] / bc2;
        w[j] -= lr * (mhat / (std::sqrt(vhat) + eps) + weight_decay * w[j]);
    }
}

void adam_update(float* w, const float* g, float* m, float* v, std::size_t n, float lr,
                 float beta1, float beta2, float eps, float weight_decay, float bc1, float bc2,
                 float gscale) {
    tier_kernels().adam_update(w, g, m, v, n, lr, beta1, beta2, eps, weight_decay, bc1, bc2,
                               gscale);
}

}  // namespace cpt::nn::kernels
