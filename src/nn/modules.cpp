#include "modules.hpp"

#include <algorithm>
#include <cmath>

#include "gemm.hpp"
#include "kernels.hpp"
#include "util/check.hpp"

namespace cpt::nn {

std::vector<NamedParam> Module::named_parameters(const std::string& prefix) const {
    std::vector<NamedParam> out;
    collect(prefix, out);
    return out;
}

std::vector<Var> Module::parameters() const {
    std::vector<Var> out;
    for (auto& [name, p] : named_parameters()) out.push_back(p);
    return out;
}

std::size_t Module::num_parameters() const {
    std::size_t n = 0;
    for (const auto& p : parameters()) n += p->value.numel();
    return n;
}

// ---- Linear -------------------------------------------------------------------

Linear::Linear(std::size_t in, std::size_t out, util::Rng& rng, float init_std)
    : in_(in),
      out_(out),
      weight_(make_param(Tensor::randn(rng, {out, in}, init_std))),
      bias_(make_param(Tensor::zeros({out}))) {}

Var Linear::forward(const Var& x) const {
    const auto& xs = x->value.shape();
    CPT_CHECK(!xs.empty() && xs.back() == in_, "Linear::forward: expected last dim ", in_,
              ", got ", shape_to_string(xs));
    // matmul_nt consumes the [out, in] weight directly (one NT GEMM over the
    // flattened rows), so the training path no longer materializes the
    // transposed weight or the reshape nodes on either pass.
    return add_bias(matmul_nt(x, weight_), bias_);
}

void Linear::collect(const std::string& prefix, std::vector<NamedParam>& out) const {
    out.push_back({prefix + "weight", weight_});
    out.push_back({prefix + "bias", bias_});
}

// ---- LayerNorm ------------------------------------------------------------------

LayerNorm::LayerNorm(std::size_t dim)
    : gain_(make_param(Tensor::full({dim}, 1.0f))), bias_(make_param(Tensor::zeros({dim}))) {}

Var LayerNorm::forward(const Var& x) const { return layer_norm(x, gain_, bias_); }

void LayerNorm::collect(const std::string& prefix, std::vector<NamedParam>& out) const {
    out.push_back({prefix + "gain", gain_});
    out.push_back({prefix + "bias", bias_});
}

// ---- MLP ------------------------------------------------------------------------

Mlp::Mlp(std::size_t in, std::size_t hidden, std::size_t out, util::Rng& rng)
    : fc1_(in, hidden, rng), fc2_(hidden, out, rng) {}

Var Mlp::forward(const Var& x) const {
    // Fused bias+GELU epilogue on fc1, mirroring forward_rows: same
    // per-element math as matmul -> add_bias -> gelu with two fewer
    // activation tensors on the tape.
    return fc2_.forward(bias_gelu(matmul_nt(x, fc1_.weight()), fc1_.bias()));
}

void Mlp::collect(const std::string& prefix, std::vector<NamedParam>& out) const {
    fc1_.collect(prefix + "fc1.", out);
    fc2_.collect(prefix + "fc2.", out);
}

// ---- Decode snapshots ---------------------------------------------------------------

PackedLinear PackedLinear::from(const Linear& fp) {
    const auto b = fp.bias()->value.data();
    return {DecodePanel(fp.weight()->value.data().data(), fp.out_features(), fp.in_features()),
            std::vector<float>(b.begin(), b.end())};
}

void PackedLinear::forward_rows(const float* x, float* y, std::size_t rows) const {
    // Rows are pre-filled with the bias, then the decode NT kernel
    // accumulates x W^T; a row's bits are independent of the row count.
    kernels::fill_bias_rows(y, bias.data(), rows, weight.n());
    gemm_nt_decode(x, weight, y, rows);
}

PackedMlp PackedMlp::from(const Mlp& fp) {
    return {PackedLinear::from(fp.fc1()), PackedLinear::from(fp.fc2())};
}

void PackedMlp::forward_rows(const float* x, float* hidden, float* y, std::size_t rows) const {
    const std::size_t h = fc1.weight.n();
    // fc1 accumulates into zeroed scratch and the bias is folded into the
    // GELU epilogue: gelu(dot + bias), the same per-element value and order
    // Mlp::forward() computes via matmul -> bias_gelu.
    std::fill_n(hidden, rows * h, 0.0f);
    gemm_nt_decode(x, fc1.weight, hidden, rows);
    for (std::size_t r = 0; r < rows; ++r) {
        kernels::bias_gelu_row(hidden + r * h, fc1.bias.data(), h);
    }
    fc2.forward_rows(hidden, y, rows);
}

// ---- Attention --------------------------------------------------------------------

MultiHeadSelfAttention::MultiHeadSelfAttention(std::size_t d_model, std::size_t heads,
                                               util::Rng& rng)
    : heads_(heads),
      d_model_(d_model),
      wq_(d_model, d_model, rng),
      wk_(d_model, d_model, rng),
      wv_(d_model, d_model, rng),
      wo_(d_model, d_model, rng) {
    CPT_CHECK(heads > 0 && d_model % heads == 0,
              "MultiHeadSelfAttention: d_model ", d_model, " must divide by heads ", heads);
}

Var MultiHeadSelfAttention::forward(const Var& x) const {
    const auto& xs = x->value.shape();
    CPT_CHECK(xs.size() == 3 && xs[2] == d_model_,
              "MultiHeadSelfAttention::forward: bad input ", shape_to_string(xs));
    const std::size_t dh = d_model_ / heads_;
    Var q = split_heads(wq_.forward(x), heads_);
    Var k = split_heads(wk_.forward(x), heads_);
    Var v = split_heads(wv_.forward(x), heads_);
    Var scores = scale(matmul(q, transpose_last2(k)), 1.0f / std::sqrt(static_cast<float>(dh)));
    Var attn = softmax_causal(scores);
    Var ctx = merge_heads(matmul(attn, v));
    return wo_.forward(ctx);
}

void MultiHeadSelfAttention::collect(const std::string& prefix, std::vector<NamedParam>& out) const {
    wq_.collect(prefix + "wq.", out);
    wk_.collect(prefix + "wk.", out);
    wv_.collect(prefix + "wv.", out);
    wo_.collect(prefix + "wo.", out);
}

// ---- Transformer block ---------------------------------------------------------------

TransformerBlock::TransformerBlock(std::size_t d_model, std::size_t heads, std::size_t mlp_hidden,
                                   util::Rng& rng)
    : ln1_(d_model), attn_(d_model, heads, rng), ln2_(d_model), mlp_(d_model, mlp_hidden, d_model, rng) {}

Var TransformerBlock::forward(const Var& x) const {
    Var h = add(x, attn_.forward(ln1_.forward(x)));
    return add(h, mlp_.forward(ln2_.forward(h)));
}

void TransformerBlock::collect(const std::string& prefix, std::vector<NamedParam>& out) const {
    ln1_.collect(prefix + "ln1.", out);
    attn_.collect(prefix + "attn.", out);
    ln2_.collect(prefix + "ln2.", out);
    mlp_.collect(prefix + "mlp.", out);
}

// ---- Transformer backbone --------------------------------------------------------------

Transformer::Transformer(const TransformerConfig& config, util::Rng& rng)
    : config_(config),
      input_proj_(config.d_token, config.d_model, rng),
      positions_(make_param(Tensor::randn(rng, {config.max_seq_len, config.d_model}, 0.02f))),
      final_ln_(config.d_model) {
    for (std::size_t i = 0; i < config.blocks; ++i) {
        blocks_.push_back(
            std::make_unique<TransformerBlock>(config.d_model, config.heads, config.mlp_hidden, rng));
    }
}

Var Transformer::forward(const Var& tokens) const {
    const auto& ts = tokens->value.shape();
    CPT_CHECK(ts.size() == 3 && ts[2] == config_.d_token,
              "Transformer::forward: expected [B, T, d_token], got ", shape_to_string(ts));
    CPT_CHECK_LE(ts[1], config_.max_seq_len, " Transformer::forward: sequence too long");
    Var x = add_position(input_proj_.forward(tokens), positions_);
    for (const auto& block : blocks_) x = block->forward(x);
    return final_ln_.forward(x);
}

void Transformer::collect(const std::string& prefix, std::vector<NamedParam>& out) const {
    input_proj_.collect(prefix + "input_proj.", out);
    out.push_back({prefix + "positions", positions_});
    for (std::size_t i = 0; i < blocks_.size(); ++i) {
        blocks_[i]->collect(prefix + "block" + std::to_string(i) + ".", out);
    }
    final_ln_.collect(prefix + "final_ln.", out);
}

// ---- LSTM ------------------------------------------------------------------------------

LstmCell::LstmCell(std::size_t in, std::size_t hidden, util::Rng& rng)
    : in_(in),
      hidden_(hidden),
      gates_(in + hidden, 4 * hidden, rng,
             1.0f / std::sqrt(static_cast<float>(in + hidden))) {}

LstmCell::State LstmCell::zero_state(std::size_t batch) const {
    return {make_var(Tensor::zeros({batch, hidden_})), make_var(Tensor::zeros({batch, hidden_}))};
}

LstmCell::State LstmCell::step(const Var& x, const State& state) const {
    const auto& xs = x->value.shape();
    CPT_CHECK(xs.size() == 2 && xs[1] == in_, "LstmCell::step: bad input shape ",
              shape_to_string(xs));
    Var xh = concat_lastdim({x, state.h});
    Var g = gates_.forward(xh);  // [B, 4H]
    Var i = sigmoid(slice_lastdim(g, 0, hidden_));
    Var f = sigmoid(slice_lastdim(g, hidden_, hidden_));
    Var cand = tanh_op(slice_lastdim(g, 2 * hidden_, hidden_));
    Var o = sigmoid(slice_lastdim(g, 3 * hidden_, hidden_));
    Var c = add(mul(f, state.c), mul(i, cand));
    Var h = mul(o, tanh_op(c));
    return {h, c};
}

void LstmCell::collect(const std::string& prefix, std::vector<NamedParam>& out) const {
    gates_.collect(prefix + "gates.", out);
}

LstmStack::LstmStack(std::size_t in, std::size_t hidden, std::size_t layers, util::Rng& rng) {
    CPT_CHECK_GT(layers, std::size_t{0}, " LstmStack: needs at least one layer");
    for (std::size_t i = 0; i < layers; ++i) {
        cells_.push_back(std::make_unique<LstmCell>(i == 0 ? in : hidden, hidden, rng));
    }
}

LstmStack::State LstmStack::zero_state(std::size_t batch) const {
    State s;
    for (const auto& cell : cells_) s.push_back(cell->zero_state(batch));
    return s;
}

std::pair<Var, LstmStack::State> LstmStack::step(const Var& x, const State& state) const {
    CPT_CHECK_EQ(state.size(), cells_.size(), " LstmStack::step: state vs layer count");
    State next;
    Var input = x;
    for (std::size_t i = 0; i < cells_.size(); ++i) {
        auto s = cells_[i]->step(input, state[i]);
        input = s.h;
        next.push_back(std::move(s));
    }
    return {input, std::move(next)};
}

void LstmStack::collect(const std::string& prefix, std::vector<NamedParam>& out) const {
    for (std::size_t i = 0; i < cells_.size(); ++i) {
        cells_[i]->collect(prefix + "layer" + std::to_string(i) + ".", out);
    }
}

}  // namespace cpt::nn
