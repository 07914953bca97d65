// Tape-based reverse-mode automatic differentiation over Tensor.
//
// Usage: wrap leaf tensors in Vars (make_var / make_param), compose them with
// the differentiable ops below, call backward() on a scalar result, then read
// gradients from the leaves. Each op allocates a graph Node whose backward
// closure scatters the output gradient into its parents; the graph is freed
// when the root Var goes out of scope (parameter nodes are kept alive by the
// modules that own them).
//
// Gradients accumulate across backward() calls until zero_grad(), which is
// what lets parameters participate in many graphs (e.g. gradient
// accumulation, GAN generator/discriminator alternation).
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "tensor.hpp"

namespace cpt::nn {

struct Node;
using Var = std::shared_ptr<Node>;

// ---- Tape arena ---------------------------------------------------------------
// Recycles tensor storage across training steps. The tape built by one
// forward/backward pass allocates the same sequence of activation and
// gradient buffers every step (the shapes are a pure function of the batch
// and window sizes), so a trainer can size the tape once on the first step
// and then reuse the freed buffers instead of hitting the allocator — the
// training-path analogue of the decoder's zero-alloc DecodeScratch arena.
//
// Usage (see core/trainer.cpp): create one TapeArena per training shard, open
// an ArenaScope for each step's tape, release the step's graph (let the loss
// Var go out of scope), then call reset() to reclaim the step's buffers.
// Buffers still referenced after reset() — parameter gradients, cached loss
// values — simply stay checked out and are reconsidered at the next reset.
//
// Recycled buffers are re-zeroed on reuse, so arena-backed results are
// bit-identical to fresh Tensor allocations (pinned by
// tests/train_determinism_test.cpp). The arena is not thread-safe; the
// active-arena pointer an ArenaScope installs is thread-local, which is what
// lets hub_trainer workers each run their own scoped arena concurrently.
class TapeArena {
public:
    TapeArena() = default;
    TapeArena(const TapeArena&) = delete;
    TapeArena& operator=(const TapeArena&) = delete;

    // Zero-filled tensor of `shape` (same contract as Tensor(shape)), backed
    // by a recycled buffer of the exact byte size when one is free.
    Tensor alloc(Shape shape);
    // Arena-backed deep copy of `src`.
    Tensor clone(const Tensor& src);

    // Reclaims every lent buffer whose only remaining reference is the
    // arena's (the graph released it); still-referenced buffers stay lent.
    void reset();

    struct Stats {
        std::size_t fresh = 0;       // allocations that hit the heap
        std::size_t reused = 0;      // allocations served from the free lists
        std::size_t held_bytes = 0;  // total bytes ever allocated through the arena
        std::size_t lent = 0;        // buffers currently checked out
    };
    Stats stats() const;

private:
    TensorStorage take(std::size_t numel);

    // Free buffers keyed by exact element count, LIFO per size class.
    std::unordered_map<std::size_t, std::vector<TensorStorage>> free_;
    // Every storage currently checked out (graph tensors, param grads, ...).
    std::vector<TensorStorage> lent_;
    Stats stats_;
};

// RAII: routes the tensor allocations of every autograd op on this thread
// through `arena` for the scope's lifetime. Scopes do not nest. Ops called
// outside any scope allocate normally, so inference and non-training code
// paths are unaffected.
class ArenaScope {
public:
    explicit ArenaScope(TapeArena& arena);
    ~ArenaScope();
    ArenaScope(const ArenaScope&) = delete;
    ArenaScope& operator=(const ArenaScope&) = delete;
};

struct Node {
    Tensor value;
    Tensor grad;  // allocated lazily by ensure_grad()
    bool requires_grad = false;
    std::vector<Var> parents;
    // Scatters this node's grad into parents' grads. Null for leaves.
    std::function<void()> backward_fn;

    // Allocates (zero) grad storage if absent; returns it.
    Tensor& ensure_grad();
};

// Leaf that does not require a gradient (e.g. input batch).
Var make_var(Tensor value);
// Trainable leaf.
Var make_param(Tensor value);

// Runs reverse-mode AD from `root`, which must be scalar (numel == 1).
// Seeds d(root)/d(root) = 1 and accumulates into every reachable
// requires_grad leaf.
void backward(const Var& root);

// Clears gradients on the given parameters.
void zero_grad(std::span<const Var> params);

// ---- Differentiable operations ----------------------------------------------
// Shape contracts are asserted; violations throw std::invalid_argument.

Var add(const Var& a, const Var& b);            // same shape
Var sub(const Var& a, const Var& b);            // same shape
Var mul(const Var& a, const Var& b);            // elementwise, same shape
Var scale(const Var& a, float s);               // a * s
Var add_scalar(const Var& a, float s);          // a + s
Var neg(const Var& a);

// x: [..., D], bias: [D] -> x + bias broadcast over leading dims.
Var add_bias(const Var& x, const Var& bias);

// Batched matrix multiply: [.., M, K] x [.., K, N] -> [.., M, N]; leading
// batch dims must match exactly (or both operands are rank 2).
Var matmul(const Var& a, const Var& b);

// y = x · bᵀ with b stored [N, K] and shared across all leading dims of
// x [..., K] -> [..., N]. Equivalent to matmul(x, transpose_last2(b)) without
// materializing the transposed weight on either the forward or the backward
// path: forward runs the NT kernel and backward the NN/TN kernels directly
// (dX = dY·B, dB = dYᵀ·X), so training linear layers hits the same
// tier-dispatched GEMMs as inference.
Var matmul_nt(const Var& x, const Var& b);

// Swap the last two dims (copying).
Var transpose_last2(const Var& a);

// O(1) metadata reshape; numel must match.
Var reshape(const Var& a, Shape shape);

// Softmax over the last dimension.
Var softmax_lastdim(const Var& a);
// Softmax over the last dim of [..., T, T] scores with a causal mask: entries
// with column > row are excluded (treated as -inf).
Var softmax_causal(const Var& scores);

// Layer normalization over the last dimension with learnable gain/bias [D].
Var layer_norm(const Var& x, const Var& gain, const Var& bias, float eps = 1e-5f);

Var gelu(const Var& a);      // tanh approximation
// Fused gelu(x + bias) over the last dimension (bias: [D]); one node and no
// intermediate pre-activation tensor, with the same per-element math as
// gelu(add_bias(x, bias)). The backward recomputes x + bias instead of
// storing it.
Var bias_gelu(const Var& x, const Var& bias);
Var relu(const Var& a);
Var sigmoid(const Var& a);
Var tanh_op(const Var& a);
Var exp_op(const Var& a);
// log(a) with inputs clamped to >= eps for numerical safety.
Var log_op(const Var& a, float eps = 1e-12f);

// Slice of the last dimension: x[..., start : start+len].
Var slice_lastdim(const Var& x, std::size_t start, std::size_t len);
// Concatenate along the last dimension; all leading dims must match.
Var concat_lastdim(const std::vector<Var>& xs);

// x: [B, T, D], pos: [Tmax, D] with T <= Tmax -> x + pos[0:T] broadcast over B.
Var add_position(const Var& x, const Var& pos);

// [B, T, D] -> [B, H, T, D/H] (D divisible by H), and its inverse.
Var split_heads(const Var& x, std::size_t heads);
Var merge_heads(const Var& x);

Var sum_all(const Var& a);   // -> [1]
Var mean_all(const Var& a);  // -> [1]

// ---- Losses (produce scalar [1]) --------------------------------------------

// Softmax cross-entropy from logits [N, C] against integer targets (size N).
// Targets equal to kIgnoreIndex contribute nothing; the loss is the mean over
// non-ignored rows (0 if all ignored).
inline constexpr int kIgnoreIndex = -1;
Var cross_entropy(const Var& logits, const std::vector<int>& targets);

// Gaussian negative log-likelihood of `target` under N(mu, exp(logvar)):
// mean over rows with mask != 0 of 0.5 * (logvar + (target - mu)^2 / exp(logvar)).
// mu/logvar: any shape with numel N; target/mask: length N.
Var gaussian_nll(const Var& mu, const Var& logvar, const Tensor& target,
                 const std::vector<float>& mask);

// Masked mean squared error (used by the "no distribution prediction"
// ablation head).
Var mse_masked(const Var& pred, const Tensor& target, const std::vector<float>& mask);

// Binary cross-entropy from a single logit per row, targets in {0,1}, mean
// over rows. Used by the GAN discriminator.
Var bce_with_logits(const Var& logits, const std::vector<float>& targets);

}  // namespace cpt::nn
