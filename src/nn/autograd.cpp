#include "autograd.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <unordered_set>

#include "gemm.hpp"
#include "kernels.hpp"
#include "util/check.hpp"

namespace cpt::nn {

namespace {

// Shorthand for shape diagnostics in the CPT_CHECK messages below.
std::string sstr(const Tensor& t) { return shape_to_string(t.shape()); }

// Active arena for this thread (installed by ArenaScope). Null outside any
// scope, in which case the helpers below degrade to plain allocations.
thread_local TapeArena* tls_arena = nullptr;

// Every tensor an op materializes (outputs, gradients, backward scratch)
// funnels through these two helpers so a scoped arena can recycle them.
Tensor tape_tensor(Shape shape) {
    if (tls_arena != nullptr) return tls_arena->alloc(std::move(shape));
    return Tensor(std::move(shape));
}

Tensor tape_clone(const Tensor& src) {
    if (tls_arena != nullptr) return tls_arena->clone(src);
    return src.clone();
}

// Creates the output node for an op. Chokepoint for every differentiable op's
// forward result, so the debug-build NaN/Inf guard lives here.
Var make_node(Tensor value, std::vector<Var> parents) {
    CPT_DCHECK_FINITE(value.data(), "autograd op output");
    auto node = std::make_shared<Node>();
    node->value = std::move(value);
    node->requires_grad = false;
    for (const auto& p : parents) {
        if (p->requires_grad) node->requires_grad = true;
    }
    node->parents = std::move(parents);
    return node;
}

// ---- Batched GEMM dispatch ---------------------------------------------------
// The kernels themselves live in gemm.cpp (blocked, register-tiled); a batch
// runs them one matrix after another.

using GemmFn = void (*)(const float*, const float*, float*, std::size_t, std::size_t, std::size_t);

void batched_gemm(GemmFn fn, const float* a, const float* b, float* c, std::size_t batch,
                  std::size_t a_stride, std::size_t b_stride, std::size_t c_stride,
                  std::size_t m_dim, std::size_t k_dim, std::size_t n_dim) {
    for (std::size_t i = 0; i < batch; ++i) {
        fn(a + i * a_stride, b + i * b_stride, c + i * c_stride, m_dim, k_dim, n_dim);
    }
}

}  // namespace

// ---- TapeArena ----------------------------------------------------------------

TensorStorage TapeArena::take(std::size_t numel) {
    auto it = free_.find(numel);
    if (it != free_.end() && !it->second.empty()) {
        TensorStorage s = std::move(it->second.back());
        it->second.pop_back();
        ++stats_.reused;
        lent_.push_back(s);
        return s;
    }
    ++stats_.fresh;
    stats_.held_bytes += numel * sizeof(float);
    auto s = std::make_shared<std::vector<float>>(numel, 0.0f);
    lent_.push_back(s);
    return s;
}

Tensor TapeArena::alloc(Shape shape) {
    const std::size_t n = shape_numel(shape);
    TensorStorage s = take(n);
    // Recycled buffers carry the previous step's values; re-zero so the
    // result is bit-identical to a fresh Tensor(shape).
    std::fill(s->begin(), s->end(), 0.0f);
    return Tensor::adopt(std::move(s), std::move(shape));
}

Tensor TapeArena::clone(const Tensor& src) {
    TensorStorage s = take(src.numel());
    auto d = src.data();
    std::copy(d.begin(), d.end(), s->begin());
    return Tensor::adopt(std::move(s), src.shape());
}

void TapeArena::reset() {
    std::vector<TensorStorage> still;
    still.reserve(lent_.size());
    for (auto& s : lent_) {
        if (s.use_count() == 1) {
            free_[s->size()].push_back(std::move(s));
        } else {
            still.push_back(std::move(s));
        }
    }
    lent_ = std::move(still);
}

TapeArena::Stats TapeArena::stats() const {
    Stats s = stats_;
    s.lent = lent_.size();
    return s;
}

ArenaScope::ArenaScope(TapeArena& arena) {
    CPT_CHECK(tls_arena == nullptr, "ArenaScope: scopes do not nest");
    tls_arena = &arena;
}

ArenaScope::~ArenaScope() { tls_arena = nullptr; }

Tensor& Node::ensure_grad() {
    if (grad.numel() != value.numel()) grad = tape_tensor(value.shape());
    return grad;
}

Var make_var(Tensor value) {
    auto node = std::make_shared<Node>();
    node->value = std::move(value);
    node->requires_grad = false;
    return node;
}

Var make_param(Tensor value) {
    CPT_DCHECK_FINITE(value.data(), "make_param: initial value");
    auto node = std::make_shared<Node>();
    node->value = std::move(value);
    node->requires_grad = true;
    return node;
}

void backward(const Var& root) {
    CPT_CHECK(root != nullptr, "backward: null root");
    CPT_CHECK_EQ(root->value.numel(), std::size_t{1}, " backward: root must be scalar, got ",
                 sstr(root->value));
    // Iterative post-order DFS to build a topological order.
    std::vector<Node*> topo;
    std::unordered_set<Node*> visited;
    struct Frame {
        Node* node;
        std::size_t next_parent;
    };
    std::vector<Frame> stack;
    stack.push_back({root.get(), 0});
    visited.insert(root.get());
    while (!stack.empty()) {
        Frame& f = stack.back();
        if (f.next_parent < f.node->parents.size()) {
            Node* p = f.node->parents[f.next_parent++].get();
            if (p->requires_grad && !visited.contains(p)) {
                visited.insert(p);
                stack.push_back({p, 0});
            }
        } else {
            topo.push_back(f.node);
            stack.pop_back();
        }
    }
    root->ensure_grad().fill(1.0f);
    for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
        Node* n = *it;
        if (n->backward_fn && n->grad.numel() == n->value.numel()) {
            // Guard the incoming gradient before scattering it: a NaN caught
            // here names the op whose backward produced it rather than
            // surfacing later as a corrupted weight.
            CPT_DCHECK_FINITE(n->grad.data(), "backward: incoming gradient");
            n->backward_fn();
        }
    }
}

void zero_grad(std::span<const Var> params) {
    for (const auto& p : params) {
        if (p && p->grad.numel() > 0) p->grad.fill(0.0f);
    }
}

// ---- Elementwise binary ops ---------------------------------------------------

Var add(const Var& a, const Var& b) {
    CPT_CHECK(a->value.same_shape(b->value), "add: shape mismatch ", sstr(a->value), " vs ",
              sstr(b->value));
    Tensor out = tape_clone(a->value);
    out.add_(b->value);
    Var node = make_node(std::move(out), {a, b});
    if (!node->requires_grad) return node;
    Node* raw = node.get();
    node->backward_fn = [raw, a, b] {
        if (a->requires_grad) a->ensure_grad().add_(raw->grad);
        if (b->requires_grad) b->ensure_grad().add_(raw->grad);
    };
    return node;
}

Var sub(const Var& a, const Var& b) {
    CPT_CHECK(a->value.same_shape(b->value), "sub: shape mismatch ", sstr(a->value), " vs ",
              sstr(b->value));
    Tensor out = tape_clone(a->value);
    {
        auto dst = out.data();
        auto src = b->value.data();
        for (std::size_t i = 0; i < dst.size(); ++i) dst[i] -= src[i];
    }
    Var node = make_node(std::move(out), {a, b});
    if (!node->requires_grad) return node;
    Node* raw = node.get();
    node->backward_fn = [raw, a, b] {
        if (a->requires_grad) a->ensure_grad().add_(raw->grad);
        if (b->requires_grad) {
            auto dst = b->ensure_grad().data();
            auto g = raw->grad.data();
            for (std::size_t i = 0; i < dst.size(); ++i) dst[i] -= g[i];
        }
    };
    return node;
}

Var mul(const Var& a, const Var& b) {
    CPT_CHECK(a->value.same_shape(b->value), "mul: shape mismatch ", sstr(a->value), " vs ",
              sstr(b->value));
    Tensor out = tape_tensor(a->value.shape());
    {
        auto dst = out.data();
        auto xa = a->value.data();
        auto xb = b->value.data();
        for (std::size_t i = 0; i < dst.size(); ++i) dst[i] = xa[i] * xb[i];
    }
    Var node = make_node(std::move(out), {a, b});
    if (!node->requires_grad) return node;
    Node* raw = node.get();
    node->backward_fn = [raw, a, b] {
        auto g = raw->grad.data();
        if (a->requires_grad) {
            auto dst = a->ensure_grad().data();
            auto xb = b->value.data();
            for (std::size_t i = 0; i < dst.size(); ++i) dst[i] += g[i] * xb[i];
        }
        if (b->requires_grad) {
            auto dst = b->ensure_grad().data();
            auto xa = a->value.data();
            for (std::size_t i = 0; i < dst.size(); ++i) dst[i] += g[i] * xa[i];
        }
    };
    return node;
}

Var scale(const Var& a, float s) {
    Tensor out = tape_clone(a->value);
    out.scale_(s);
    Var node = make_node(std::move(out), {a});
    if (!node->requires_grad) return node;
    Node* raw = node.get();
    node->backward_fn = [raw, a, s] {
        auto dst = a->ensure_grad().data();
        auto g = raw->grad.data();
        for (std::size_t i = 0; i < dst.size(); ++i) dst[i] += g[i] * s;
    };
    return node;
}

Var add_scalar(const Var& a, float s) {
    Tensor out = tape_clone(a->value);
    for (float& x : out.data()) x += s;
    Var node = make_node(std::move(out), {a});
    if (!node->requires_grad) return node;
    Node* raw = node.get();
    node->backward_fn = [raw, a] {
        if (a->requires_grad) a->ensure_grad().add_(raw->grad);
    };
    return node;
}

Var neg(const Var& a) { return scale(a, -1.0f); }

Var add_bias(const Var& x, const Var& bias) {
    const auto& xs = x->value.shape();
    CPT_CHECK(!xs.empty() && bias->value.rank() == 1 && bias->value.dim(0) == xs.back(),
              "add_bias: x ", sstr(x->value), " incompatible with bias ", sstr(bias->value));
    const std::size_t d = xs.back();
    const std::size_t rows = x->value.numel() / d;
    Tensor out = tape_clone(x->value);
    kernels::add_bias_rows(out.data().data(), bias->value.data().data(), rows, d);
    Var node = make_node(std::move(out), {x, bias});
    if (!node->requires_grad) return node;
    Node* raw = node.get();
    node->backward_fn = [raw, x, bias, rows, d] {
        if (x->requires_grad) x->ensure_grad().add_(raw->grad);
        if (bias->requires_grad) {
            kernels::col_sum_rows(raw->grad.data().data(), bias->ensure_grad().data().data(),
                                  rows, d);
        }
    };
    return node;
}

// ---- Matmul / transpose / reshape ---------------------------------------------

Var matmul(const Var& a, const Var& b) {
    const auto& as = a->value.shape();
    const auto& bs = b->value.shape();
    CPT_CHECK(as.size() >= 2 && bs.size() == as.size(), "matmul: shape mismatch ", sstr(a->value),
              " vs ", sstr(b->value));
    for (std::size_t i = 0; i + 2 < as.size(); ++i) {
        CPT_CHECK_EQ(as[i], bs[i], " matmul: batch dim ", i, " differs: ", sstr(a->value), " vs ",
                     sstr(b->value));
    }
    const std::size_t m_dim = as[as.size() - 2];
    const std::size_t k_dim = as[as.size() - 1];
    CPT_CHECK_EQ(bs[bs.size() - 2], k_dim, " matmul: inner dims differ: ", sstr(a->value), " vs ",
                 sstr(b->value));
    const std::size_t n_dim = bs[bs.size() - 1];
    std::size_t batch = 1;
    for (std::size_t i = 0; i + 2 < as.size(); ++i) batch *= as[i];

    Shape out_shape(as.begin(), as.end() - 2);
    out_shape.push_back(m_dim);
    out_shape.push_back(n_dim);
    Tensor out = tape_tensor(out_shape);
    batched_gemm(gemm_nn, a->value.data().data(), b->value.data().data(), out.data().data(),
                 batch, m_dim * k_dim, k_dim * n_dim, m_dim * n_dim, m_dim, k_dim, n_dim);
    Var node = make_node(std::move(out), {a, b});
    if (!node->requires_grad) return node;
    Node* raw = node.get();
    node->backward_fn = [raw, a, b, batch, m_dim, k_dim, n_dim] {
        const float* g = raw->grad.data().data();
        if (a->requires_grad) {
            // dA = dC * B^T
            batched_gemm(gemm_nt, g, b->value.data().data(), a->ensure_grad().data().data(),
                         batch, m_dim * n_dim, k_dim * n_dim, m_dim * k_dim, m_dim, n_dim, k_dim);
        }
        if (b->requires_grad) {
            // dB = A^T * dC
            batched_gemm(gemm_tn, a->value.data().data(), g, b->ensure_grad().data().data(),
                         batch, m_dim * k_dim, m_dim * n_dim, k_dim * n_dim, k_dim, m_dim, n_dim);
        }
    };
    return node;
}

Var matmul_nt(const Var& x, const Var& b) {
    const auto& xs = x->value.shape();
    const auto& bs = b->value.shape();
    CPT_CHECK(!xs.empty() && bs.size() == 2, "matmul_nt: x ", sstr(x->value), " vs b ",
              sstr(b->value));
    const std::size_t k_dim = xs.back();
    CPT_CHECK_EQ(bs[1], k_dim, " matmul_nt: inner dims differ: ", sstr(x->value), " vs ",
                 sstr(b->value));
    const std::size_t n_dim = bs[0];
    // b is shared across all leading dims of x, so the whole input flattens
    // into one [rows, k] x [n, k]^T GEMM regardless of batch structure.
    const std::size_t rows = x->value.numel() / k_dim;
    Shape out_shape(xs.begin(), xs.end() - 1);
    out_shape.push_back(n_dim);
    Tensor out = tape_tensor(out_shape);
    gemm_nt(x->value.data().data(), b->value.data().data(), out.data().data(), rows, k_dim, n_dim);
    Var node = make_node(std::move(out), {x, b});
    if (!node->requires_grad) return node;
    Node* raw = node.get();
    node->backward_fn = [raw, x, b, rows, k_dim, n_dim] {
        const float* g = raw->grad.data().data();
        if (x->requires_grad) {
            // dX = dY · B  ([rows, n] x [n, k])
            gemm_nn(g, b->value.data().data(), x->ensure_grad().data().data(), rows, n_dim, k_dim);
        }
        if (b->requires_grad) {
            // dB = dYᵀ · X  ([n, rows] x [rows, k])
            gemm_tn(g, x->value.data().data(), b->ensure_grad().data().data(), n_dim, rows, k_dim);
        }
    };
    return node;
}

namespace {

void transpose_copy(const float* src, float* dst, std::size_t batch, std::size_t rows,
                    std::size_t cols) {
    for (std::size_t i = 0; i < batch; ++i) {
        const float* s = src + i * rows * cols;
        float* d = dst + i * rows * cols;
        for (std::size_t r = 0; r < rows; ++r) {
            for (std::size_t c = 0; c < cols; ++c) d[c * rows + r] = s[r * cols + c];
        }
    }
}

}  // namespace

Var transpose_last2(const Var& a) {
    const auto& as = a->value.shape();
    CPT_CHECK_GE(as.size(), std::size_t{2}, " transpose_last2: bad shape ", sstr(a->value));
    const std::size_t rows = as[as.size() - 2];
    const std::size_t cols = as[as.size() - 1];
    std::size_t batch = 1;
    for (std::size_t i = 0; i + 2 < as.size(); ++i) batch *= as[i];
    Shape out_shape = as;
    std::swap(out_shape[out_shape.size() - 2], out_shape[out_shape.size() - 1]);
    Tensor out = tape_tensor(out_shape);
    transpose_copy(a->value.data().data(), out.data().data(), batch, rows, cols);
    Var node = make_node(std::move(out), {a});
    if (!node->requires_grad) return node;
    Node* raw = node.get();
    node->backward_fn = [raw, a, batch, rows, cols] {
        // Gradient of a transpose is the transpose of the gradient.
        Tensor tmp = tape_tensor(a->value.shape());
        transpose_copy(raw->grad.data().data(), tmp.data().data(), batch, cols, rows);
        a->ensure_grad().add_(tmp);
    };
    return node;
}

Var reshape(const Var& a, Shape shape) {
    Tensor out = a->value.reshaped(std::move(shape));
    Var node = make_node(std::move(out), {a});
    if (!node->requires_grad) return node;
    Node* raw = node.get();
    node->backward_fn = [raw, a] { a->ensure_grad().add_(raw->grad); };
    return node;
}

// ---- Softmax family -----------------------------------------------------------
// Forward softmax and the tier-dispatched backward both live in kernels.hpp,
// shared with the decoder and parity-pinned against scalar references.

Var softmax_lastdim(const Var& a) {
    const auto& as = a->value.shape();
    CPT_CHECK(!as.empty(), "softmax_lastdim: bad shape ", sstr(a->value));
    const std::size_t d = as.back();
    const std::size_t rows = a->value.numel() / d;
    Tensor out = tape_tensor(as);
    kernels::softmax_rows(a->value.data().data(), out.data().data(), rows, d);
    Var node = make_node(std::move(out), {a});
    if (!node->requires_grad) return node;
    Node* raw = node.get();
    node->backward_fn = [raw, a, rows, d] {
        kernels::softmax_backward_rows(raw->value.data().data(), raw->grad.data().data(),
                                       a->ensure_grad().data().data(), rows, d);
    };
    return node;
}

Var softmax_causal(const Var& scores) {
    const auto& ss = scores->value.shape();
    CPT_CHECK(ss.size() >= 2 && ss[ss.size() - 1] == ss[ss.size() - 2],
              "softmax_causal: scores must be [..., T, T], got ", sstr(scores->value));
    const std::size_t t = ss.back();
    const std::size_t mats = scores->value.numel() / (t * t);
    Tensor out = tape_tensor(ss);
    {
        const float* in = scores->value.data().data();
        float* o = out.data().data();
        for (std::size_t m = 0; m < mats; ++m) {
            for (std::size_t r = 0; r < t; ++r) {
                const std::size_t off = (m * t + r) * t;
                kernels::softmax_row(in + off, o + off, t, r + 1);
            }
        }
    }
    Var node = make_node(std::move(out), {scores});
    if (!node->requires_grad) return node;
    Node* raw = node.get();
    node->backward_fn = [raw, scores, mats, t] {
        kernels::softmax_backward_causal(raw->value.data().data(), raw->grad.data().data(),
                                         scores->ensure_grad().data().data(), mats, t);
    };
    return node;
}

// ---- Layer norm ---------------------------------------------------------------

Var layer_norm(const Var& x, const Var& gain, const Var& bias, float eps) {
    const auto& xs = x->value.shape();
    CPT_CHECK(!xs.empty(), "layer_norm: bad shape ", sstr(x->value));
    const std::size_t d = xs.back();
    CPT_CHECK(gain->value.numel() == d && bias->value.numel() == d,
              "layer_norm: gain ", sstr(gain->value), " / bias ", sstr(bias->value),
              " must both have ", d, " elements");
    const std::size_t rows = x->value.numel() / d;
    Tensor out = tape_tensor(xs);
    // Cache per-row {mean, inv_std} for backward in an arena-recycled tensor.
    Tensor stats = tape_tensor({rows, 2});
    kernels::layer_norm_rows(x->value.data().data(), out.data().data(),
                             gain->value.data().data(), bias->value.data().data(), rows, d, eps,
                             stats.data().data());
    Var node = make_node(std::move(out), {x, gain, bias});
    if (!node->requires_grad) return node;
    Node* raw = node.get();
    node->backward_fn = [raw, x, gain, bias, rows, d, stats] {
        float* dgain = gain->requires_grad ? gain->ensure_grad().data().data() : nullptr;
        float* dbias = bias->requires_grad ? bias->ensure_grad().data().data() : nullptr;
        float* dx = x->requires_grad ? x->ensure_grad().data().data() : nullptr;
        kernels::layer_norm_backward_rows(x->value.data().data(), gain->value.data().data(),
                                          raw->grad.data().data(), stats.data().data(), dx, dgain,
                                          dbias, rows, d);
    };
    return node;
}

// ---- Pointwise nonlinearities ---------------------------------------------------

namespace {

// Builds a pointwise op from forward f(x) and derivative df(x, y).
template <typename F, typename DF>
Var pointwise(const Var& a, F f, DF df) {
    Tensor out = tape_tensor(a->value.shape());
    {
        auto in = a->value.data();
        auto o = out.data();
        for (std::size_t i = 0; i < in.size(); ++i) o[i] = f(in[i]);
    }
    Var node = make_node(std::move(out), {a});
    if (!node->requires_grad) return node;
    Node* raw = node.get();
    node->backward_fn = [raw, a, df] {
        auto in = a->value.data();
        auto y = raw->value.data();
        auto g = raw->grad.data();
        auto dx = a->ensure_grad().data();
        for (std::size_t i = 0; i < in.size(); ++i) dx[i] += g[i] * df(in[i], y[i]);
    };
    return node;
}

}  // namespace

Var gelu(const Var& a) {
    // tanh approximation: 0.5x(1 + tanh(sqrt(2/pi)(x + 0.044715 x^3))).
    // The math lives in kernels.hpp, shared with the fused bias+GELU kernel
    // and the inference decoder.
    return pointwise(
        a, [](float x) { return kernels::gelu_scalar(x); },
        [](float x, float /*y*/) { return kernels::gelu_grad_scalar(x); });
}

Var bias_gelu(const Var& x, const Var& bias) {
    const auto& xs = x->value.shape();
    CPT_CHECK(!xs.empty() && bias->value.rank() == 1 && bias->value.dim(0) == xs.back(),
              "bias_gelu: x ", sstr(x->value), " incompatible with bias ", sstr(bias->value));
    const std::size_t d = xs.back();
    const std::size_t rows = x->value.numel() / d;
    Tensor out = tape_clone(x->value);
    kernels::bias_gelu_rows(out.data().data(), bias->value.data().data(), rows, d);
    Var node = make_node(std::move(out), {x, bias});
    if (!node->requires_grad) return node;
    Node* raw = node.get();
    node->backward_fn = [raw, x, bias, rows, d] {
        // scratch holds t = g * gelu'(x + bias); dx accumulates it directly
        // and dbias reduces it column-wise.
        Tensor scratch = tape_tensor(x->value.shape());
        float* dx = x->requires_grad ? x->ensure_grad().data().data() : nullptr;
        kernels::bias_gelu_backward_rows(x->value.data().data(), bias->value.data().data(),
                                         raw->grad.data().data(), dx, scratch.data().data(),
                                         rows, d);
        if (bias->requires_grad) {
            kernels::col_sum_rows(scratch.data().data(), bias->ensure_grad().data().data(),
                                  rows, d);
        }
    };
    return node;
}

Var relu(const Var& a) {
    return pointwise(
        a, [](float x) { return x > 0.0f ? x : 0.0f; },
        [](float x, float) { return x > 0.0f ? 1.0f : 0.0f; });
}

Var sigmoid(const Var& a) {
    return pointwise(
        a, [](float x) { return 1.0f / (1.0f + std::exp(-x)); },
        [](float, float y) { return y * (1.0f - y); });
}

Var tanh_op(const Var& a) {
    return pointwise(
        a, [](float x) { return std::tanh(x); }, [](float, float y) { return 1.0f - y * y; });
}

Var exp_op(const Var& a) {
    return pointwise(
        a, [](float x) { return std::exp(x); }, [](float, float y) { return y; });
}

Var log_op(const Var& a, float eps) {
    return pointwise(
        a, [eps](float x) { return std::log(std::max(x, eps)); },
        [eps](float x, float) { return 1.0f / std::max(x, eps); });
}

// ---- Slicing / concatenation ----------------------------------------------------

Var slice_lastdim(const Var& x, std::size_t start, std::size_t len) {
    const auto& xs = x->value.shape();
    CPT_CHECK(!xs.empty() && start + len <= xs.back(), "slice_lastdim: [", start, ", ", start + len,
              ") out of range for ", sstr(x->value));
    const std::size_t d = xs.back();
    const std::size_t rows = x->value.numel() / d;
    Shape out_shape = xs;
    out_shape.back() = len;
    Tensor out = tape_tensor(out_shape);
    {
        const float* in = x->value.data().data();
        float* o = out.data().data();
        for (std::size_t r = 0; r < rows; ++r) {
            for (std::size_t j = 0; j < len; ++j) o[r * len + j] = in[r * d + start + j];
        }
    }
    Var node = make_node(std::move(out), {x});
    if (!node->requires_grad) return node;
    Node* raw = node.get();
    node->backward_fn = [raw, x, rows, d, start, len] {
        const float* g = raw->grad.data().data();
        float* dx = x->ensure_grad().data().data();
        for (std::size_t r = 0; r < rows; ++r) {
            for (std::size_t j = 0; j < len; ++j) dx[r * d + start + j] += g[r * len + j];
        }
    };
    return node;
}

Var concat_lastdim(const std::vector<Var>& xs) {
    CPT_CHECK(!xs.empty(), "concat_lastdim: empty input list");
    const auto& first = xs[0]->value.shape();
    CPT_CHECK(!first.empty(), "concat_lastdim: bad shape ", sstr(xs[0]->value));
    std::size_t total_d = 0;
    const std::size_t rows = xs[0]->value.numel() / first.back();
    for (const auto& x : xs) {
        const auto& s = x->value.shape();
        CPT_CHECK(s.size() == first.size() && x->value.numel() / s.back() == rows,
                  "concat_lastdim: shape mismatch ", sstr(xs[0]->value), " vs ", sstr(x->value));
        total_d += s.back();
    }
    Shape out_shape = first;
    out_shape.back() = total_d;
    Tensor out = tape_tensor(out_shape);
    {
        float* o = out.data().data();
        std::size_t offset = 0;
        for (const auto& x : xs) {
            const std::size_t d = x->value.shape().back();
            const float* in = x->value.data().data();
            for (std::size_t r = 0; r < rows; ++r) {
                for (std::size_t j = 0; j < d; ++j) o[r * total_d + offset + j] = in[r * d + j];
            }
            offset += d;
        }
    }
    Var node = make_node(std::move(out), xs);
    if (!node->requires_grad) return node;
    Node* raw = node.get();
    node->backward_fn = [raw, xs, rows, total_d] {
        const float* g = raw->grad.data().data();
        std::size_t offset = 0;
        for (const auto& x : xs) {
            const std::size_t d = x->value.shape().back();
            if (x->requires_grad) {
                float* dx = x->ensure_grad().data().data();
                for (std::size_t r = 0; r < rows; ++r) {
                    for (std::size_t j = 0; j < d; ++j) dx[r * d + j] += g[r * total_d + offset + j];
                }
            }
            offset += d;
        }
    };
    return node;
}

Var add_position(const Var& x, const Var& pos) {
    const auto& xs = x->value.shape();
    const auto& ps = pos->value.shape();
    CPT_CHECK(xs.size() == 3 && ps.size() == 2 && xs[1] <= ps[0] && xs[2] == ps[1],
              "add_position: x ", sstr(x->value), " incompatible with pos ", sstr(pos->value));
    const std::size_t b = xs[0];
    const std::size_t t = xs[1];
    const std::size_t d = xs[2];
    Tensor out = tape_clone(x->value);
    {
        float* o = out.data().data();
        const float* p = pos->value.data().data();
        for (std::size_t i = 0; i < b; ++i) {
            for (std::size_t r = 0; r < t; ++r) {
                for (std::size_t j = 0; j < d; ++j) o[(i * t + r) * d + j] += p[r * d + j];
            }
        }
    }
    Var node = make_node(std::move(out), {x, pos});
    if (!node->requires_grad) return node;
    Node* raw = node.get();
    node->backward_fn = [raw, x, pos, b, t, d] {
        const float* g = raw->grad.data().data();
        if (x->requires_grad) x->ensure_grad().add_(raw->grad);
        if (pos->requires_grad) {
            float* dp = pos->ensure_grad().data().data();
            for (std::size_t i = 0; i < b; ++i) {
                for (std::size_t r = 0; r < t; ++r) {
                    for (std::size_t j = 0; j < d; ++j) dp[r * d + j] += g[(i * t + r) * d + j];
                }
            }
        }
    };
    return node;
}

namespace {

// [B, T, H, Dh] <-> [B, H, T, Dh] permutation copy.
void permute_0213(const float* src, float* dst, std::size_t b, std::size_t d1, std::size_t d2,
                  std::size_t d3) {
    // src laid out [b, d1, d2, d3]; dst laid out [b, d2, d1, d3].
    for (std::size_t i = 0; i < b; ++i) {
        for (std::size_t x = 0; x < d1; ++x) {
            for (std::size_t y = 0; y < d2; ++y) {
                const float* s = src + ((i * d1 + x) * d2 + y) * d3;
                float* o = dst + ((i * d2 + y) * d1 + x) * d3;
                for (std::size_t j = 0; j < d3; ++j) o[j] = s[j];
            }
        }
    }
}

}  // namespace

Var split_heads(const Var& x, std::size_t heads) {
    const auto& xs = x->value.shape();
    CPT_CHECK(xs.size() == 3 && heads > 0 && xs[2] % heads == 0, "split_heads: ", sstr(x->value),
              " not divisible into ", heads, " heads");
    const std::size_t b = xs[0];
    const std::size_t t = xs[1];
    const std::size_t dh = xs[2] / heads;
    Tensor out = tape_tensor({b, heads, t, dh});
    // [B, T, H*Dh] viewed as [B, T, H, Dh]; permute to [B, H, T, Dh].
    permute_0213(x->value.data().data(), out.data().data(), b, t, heads, dh);
    Var node = make_node(std::move(out), {x});
    if (!node->requires_grad) return node;
    Node* raw = node.get();
    node->backward_fn = [raw, x, b, t, heads, dh] {
        Tensor tmp = tape_tensor(x->value.shape());
        permute_0213(raw->grad.data().data(), tmp.data().data(), b, heads, t, dh);
        x->ensure_grad().add_(tmp);
    };
    return node;
}

Var merge_heads(const Var& x) {
    const auto& xs = x->value.shape();
    CPT_CHECK_EQ(xs.size(), std::size_t{4}, " merge_heads: bad shape ", sstr(x->value));
    const std::size_t b = xs[0];
    const std::size_t h = xs[1];
    const std::size_t t = xs[2];
    const std::size_t dh = xs[3];
    Tensor out = tape_tensor({b, t, h * dh});
    permute_0213(x->value.data().data(), out.data().data(), b, h, t, dh);
    Var node = make_node(std::move(out), {x});
    if (!node->requires_grad) return node;
    Node* raw = node.get();
    node->backward_fn = [raw, x, b, t, h, dh] {
        Tensor tmp = tape_tensor(x->value.shape());
        permute_0213(raw->grad.data().data(), tmp.data().data(), b, t, h, dh);
        x->ensure_grad().add_(tmp);
    };
    return node;
}

// ---- Reductions ------------------------------------------------------------------

Var sum_all(const Var& a) {
    float total = 0.0f;
    for (float x : a->value.data()) total += x;
    Var node = make_node(Tensor::scalar(total), {a});
    if (!node->requires_grad) return node;
    Node* raw = node.get();
    node->backward_fn = [raw, a] {
        const float g = raw->grad[0];
        auto dx = a->ensure_grad().data();
        for (float& x : dx) x += g;
    };
    return node;
}

Var mean_all(const Var& a) {
    const auto n = static_cast<float>(a->value.numel());
    return scale(sum_all(a), n > 0.0f ? 1.0f / n : 0.0f);
}

// ---- Losses ------------------------------------------------------------------------

Var cross_entropy(const Var& logits, const std::vector<int>& targets) {
    const auto& ls = logits->value.shape();
    CPT_CHECK(ls.size() == 2 && ls[0] == targets.size(), "cross_entropy: logits ",
              sstr(logits->value), " vs ", targets.size(), " targets");
    const std::size_t n = ls[0];
    const std::size_t c = ls[1];
    // Validate targets and count active rows up front, then let the fused
    // kernel compute each row's softmax and loss.
    std::size_t active = 0;
    for (std::size_t r = 0; r < n; ++r) {
        const int tgt = targets[r];
        if (tgt == kIgnoreIndex) continue;
        CPT_CHECK(tgt >= 0 && static_cast<std::size_t>(tgt) < c,
                  "cross_entropy: target ", tgt, " out of range for ", c, " classes at row ", r);
        ++active;
    }
    Tensor probs = tape_tensor({n, c});
    // Per-row losses land in a reusable buffer and are reduced in ascending
    // row order.
    static thread_local std::vector<double> rowloss;
    rowloss.assign(n, 0.0);
    kernels::softmax_xent_rows(logits->value.data().data(), probs.data().data(), targets.data(),
                               kIgnoreIndex, rowloss.data(), n, c);
    double loss = 0.0;
    for (std::size_t r = 0; r < n; ++r) loss += rowloss[r];
    const float denom = active > 0 ? static_cast<float>(active) : 1.0f;
    Var node = make_node(Tensor::scalar(static_cast<float>(loss) / denom), {logits});
    if (!node->requires_grad) return node;
    Node* raw = node.get();
    node->backward_fn = [raw, logits, targets, probs, n, c, denom] {
        const float g = raw->grad[0] / denom;
        kernels::xent_backward_rows(probs.data().data(), targets.data(), kIgnoreIndex,
                                    logits->ensure_grad().data().data(), g, n, c);
    };
    return node;
}

Var gaussian_nll(const Var& mu, const Var& logvar, const Tensor& target,
                 const std::vector<float>& mask) {
    const std::size_t n = target.numel();
    CPT_CHECK(mu->value.numel() == n && logvar->value.numel() == n && mask.size() == n,
              "gaussian_nll: mu ", sstr(mu->value), " / logvar ", sstr(logvar->value),
              " / mask ", mask.size(), " must all have ", n, " elements");
    float active = 0.0f;
    for (float m : mask) active += (m != 0.0f) ? 1.0f : 0.0f;
    const float denom = active > 0.0f ? active : 1.0f;
    double loss = 0.0;
    {
        const float* pm = mu->value.data().data();
        const float* pv = logvar->value.data().data();
        auto pt = target.data();
        for (std::size_t i = 0; i < n; ++i) {
            if (mask[i] == 0.0f) continue;
            const float diff = pt[i] - pm[i];
            loss += 0.5 * (pv[i] + diff * diff * std::exp(-pv[i]));
        }
    }
    Var node = make_node(Tensor::scalar(static_cast<float>(loss) / denom), {mu, logvar});
    if (!node->requires_grad) return node;
    Node* raw = node.get();
    Tensor target_copy = tape_clone(target);
    node->backward_fn = [raw, mu, logvar, target_copy, mask, n, denom] {
        const float g = raw->grad[0] / denom;
        const float* pm = mu->value.data().data();
        const float* pv = logvar->value.data().data();
        auto pt = target_copy.data();
        float* dmu = mu->requires_grad ? mu->ensure_grad().data().data() : nullptr;
        float* dlv = logvar->requires_grad ? logvar->ensure_grad().data().data() : nullptr;
        for (std::size_t i = 0; i < n; ++i) {
            if (mask[i] == 0.0f) continue;
            const float inv_var = std::exp(-pv[i]);
            const float diff = pt[i] - pm[i];
            if (dmu) dmu[i] += g * (-diff * inv_var);
            if (dlv) dlv[i] += g * 0.5f * (1.0f - diff * diff * inv_var);
        }
    };
    return node;
}

Var mse_masked(const Var& pred, const Tensor& target, const std::vector<float>& mask) {
    const std::size_t n = target.numel();
    CPT_CHECK(pred->value.numel() == n && mask.size() == n, "mse_masked: pred ",
              sstr(pred->value), " / mask ", mask.size(), " must have ", n, " elements");
    float active = 0.0f;
    for (float m : mask) active += (m != 0.0f) ? 1.0f : 0.0f;
    const float denom = active > 0.0f ? active : 1.0f;
    double loss = 0.0;
    {
        const float* pp = pred->value.data().data();
        auto pt = target.data();
        for (std::size_t i = 0; i < n; ++i) {
            if (mask[i] == 0.0f) continue;
            const float diff = pp[i] - pt[i];
            loss += diff * diff;
        }
    }
    Var node = make_node(Tensor::scalar(static_cast<float>(loss) / denom), {pred});
    if (!node->requires_grad) return node;
    Node* raw = node.get();
    Tensor target_copy = tape_clone(target);
    node->backward_fn = [raw, pred, target_copy, mask, n, denom] {
        const float g = raw->grad[0] / denom;
        const float* pp = pred->value.data().data();
        auto pt = target_copy.data();
        float* dx = pred->ensure_grad().data().data();
        for (std::size_t i = 0; i < n; ++i) {
            if (mask[i] == 0.0f) continue;
            dx[i] += g * 2.0f * (pp[i] - pt[i]);
        }
    };
    return node;
}

Var bce_with_logits(const Var& logits, const std::vector<float>& targets) {
    const std::size_t n = logits->value.numel();
    CPT_CHECK_EQ(targets.size(), n, " bce_with_logits: targets vs logits ", sstr(logits->value));
    double loss = 0.0;
    {
        const float* in = logits->value.data().data();
        for (std::size_t i = 0; i < n; ++i) {
            // Numerically stable: max(x,0) - x*t + log(1 + exp(-|x|)).
            const float x = in[i];
            loss += std::max(x, 0.0f) - x * targets[i] + std::log1p(std::exp(-std::abs(x)));
        }
    }
    const float denom = n > 0 ? static_cast<float>(n) : 1.0f;
    Var node = make_node(Tensor::scalar(static_cast<float>(loss) / denom), {logits});
    if (!node->requires_grad) return node;
    Node* raw = node.get();
    node->backward_fn = [raw, logits, targets, n, denom] {
        const float g = raw->grad[0] / denom;
        const float* in = logits->value.data().data();
        float* dx = logits->ensure_grad().data().data();
        for (std::size_t i = 0; i < n; ++i) {
            const float p = 1.0f / (1.0f + std::exp(-in[i]));
            dx[i] += g * (p - targets[i]);
        }
    };
    return node;
}

}  // namespace cpt::nn
