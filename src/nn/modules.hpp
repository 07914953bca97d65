// Neural-network modules built on the autograd ops: Linear, LayerNorm, MLP,
// causal multi-head self-attention, pre-LN transformer blocks (the CPT-GPT
// backbone), and an LSTM stack (the NetShare-baseline backbone).
//
// Modules own their parameters as Vars; calling forward() builds a fresh
// autograd graph referencing those parameter nodes, so gradients land on the
// module parameters after backward().
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "autograd.hpp"

namespace cpt::nn {

struct NamedParam {
    std::string name;
    Var param;
};

class Module {
public:
    virtual ~Module() = default;

    // Appends (prefix + local name, param) pairs for every trainable tensor.
    virtual void collect(const std::string& prefix, std::vector<NamedParam>& out) const = 0;

    std::vector<NamedParam> named_parameters(const std::string& prefix = "") const;
    std::vector<Var> parameters() const;
    std::size_t num_parameters() const;
};

// Fully connected layer: y = x W^T + b, x: [..., in] -> [..., out].
class Linear : public Module {
public:
    Linear(std::size_t in, std::size_t out, util::Rng& rng, float init_std = 0.02f);

    Var forward(const Var& x) const;
    void collect(const std::string& prefix, std::vector<NamedParam>& out) const override;

    // Inference fast path (no autograd graph, caller's thread): y = x W^T + b
    // over row-major x [rows, in], y [rows, out]. Overwrites y. Runs
    // gemm_nt_decode, so a row's bits never depend on `rows`; equal to
    // forward() bit for bit on scalar/sse2 and within FMA tolerance on avx2.
    void forward_rows(const float* x, float* y, std::size_t rows) const;

    std::size_t in_features() const { return in_; }
    std::size_t out_features() const { return out_; }
    const Var& weight() const { return weight_; }
    const Var& bias() const { return bias_; }

private:
    std::size_t in_;
    std::size_t out_;
    Var weight_;  // [out, in]
    Var bias_;    // [out]
};

class LayerNorm : public Module {
public:
    explicit LayerNorm(std::size_t dim);

    Var forward(const Var& x) const;
    void collect(const std::string& prefix, std::vector<NamedParam>& out) const override;

    const Var& gain() const { return gain_; }
    const Var& bias() const { return bias_; }

private:
    Var gain_;
    Var bias_;
};

// Two-layer perceptron with GELU: in -> hidden -> out.
class Mlp : public Module {
public:
    Mlp(std::size_t in, std::size_t hidden, std::size_t out, util::Rng& rng);

    Var forward(const Var& x) const;
    void collect(const std::string& prefix, std::vector<NamedParam>& out) const override;

    // Inference fast path: y = fc2(gelu(fc1(x))) over row-major x [rows, in],
    // y [rows, out], using `hidden` [rows, fc1.out_features()] as scratch
    // (overwritten). The fc1 epilogue is the fused bias+GELU kernel.
    void forward_rows(const float* x, float* hidden, float* y, std::size_t rows) const;

    const Linear& fc1() const { return fc1_; }
    const Linear& fc2() const { return fc2_; }

private:
    Linear fc1_;
    Linear fc2_;
};

// Causal multi-head self-attention over [B, T, D].
class MultiHeadSelfAttention : public Module {
public:
    MultiHeadSelfAttention(std::size_t d_model, std::size_t heads, util::Rng& rng);

    Var forward(const Var& x) const;
    void collect(const std::string& prefix, std::vector<NamedParam>& out) const override;

    std::size_t heads() const { return heads_; }
    const Linear& wq() const { return wq_; }
    const Linear& wk() const { return wk_; }
    const Linear& wv() const { return wv_; }
    const Linear& wo() const { return wo_; }

private:
    std::size_t heads_;
    std::size_t d_model_;
    Linear wq_;
    Linear wk_;
    Linear wv_;
    Linear wo_;
};

// Pre-LN transformer block: x += attn(ln1(x)); x += mlp(ln2(x)).
class TransformerBlock : public Module {
public:
    TransformerBlock(std::size_t d_model, std::size_t heads, std::size_t mlp_hidden,
                     util::Rng& rng);

    Var forward(const Var& x) const;
    void collect(const std::string& prefix, std::vector<NamedParam>& out) const override;

    const LayerNorm& ln1() const { return ln1_; }
    const MultiHeadSelfAttention& attn() const { return attn_; }
    const LayerNorm& ln2() const { return ln2_; }
    const Mlp& mlp() const { return mlp_; }

private:
    LayerNorm ln1_;
    MultiHeadSelfAttention attn_;
    LayerNorm ln2_;
    Mlp mlp_;
};

// Decoder-only transformer backbone: token linear + learned positions +
// N blocks + final LayerNorm. Input: [B, T, d_token]; output: [B, T, d_model].
struct TransformerConfig {
    std::size_t d_token = 9;
    std::size_t d_model = 64;
    std::size_t heads = 4;
    std::size_t mlp_hidden = 256;
    std::size_t blocks = 2;
    std::size_t max_seq_len = 512;
};

class Transformer : public Module {
public:
    Transformer(const TransformerConfig& config, util::Rng& rng);

    Var forward(const Var& tokens) const;
    void collect(const std::string& prefix, std::vector<NamedParam>& out) const override;

    const TransformerConfig& config() const { return config_; }
    const Linear& input_proj() const { return input_proj_; }
    const Var& positions() const { return positions_; }
    const std::vector<std::unique_ptr<TransformerBlock>>& blocks() const { return blocks_; }
    const LayerNorm& final_ln() const { return final_ln_; }

private:
    TransformerConfig config_;
    Linear input_proj_;
    Var positions_;  // [max_seq_len, d_model]
    std::vector<std::unique_ptr<TransformerBlock>> blocks_;
    LayerNorm final_ln_;
};

// Single LSTM cell; state is (h, c), each [B, H].
class LstmCell : public Module {
public:
    LstmCell(std::size_t in, std::size_t hidden, util::Rng& rng);

    struct State {
        Var h;
        Var c;
    };
    // Zero state for batch size B (non-trainable leaves).
    State zero_state(std::size_t batch) const;
    State step(const Var& x, const State& state) const;

    void collect(const std::string& prefix, std::vector<NamedParam>& out) const override;

    std::size_t hidden_size() const { return hidden_; }

private:
    std::size_t in_;
    std::size_t hidden_;
    Linear gates_;  // [in + hidden] -> [4 * hidden], gate order i, f, g, o
};

// Stack of LSTM layers stepped jointly.
class LstmStack : public Module {
public:
    LstmStack(std::size_t in, std::size_t hidden, std::size_t layers, util::Rng& rng);

    using State = std::vector<LstmCell::State>;
    State zero_state(std::size_t batch) const;
    // Returns the top layer's h along with the updated stack state.
    std::pair<Var, State> step(const Var& x, const State& state) const;

    void collect(const std::string& prefix, std::vector<NamedParam>& out) const override;

private:
    std::vector<std::unique_ptr<LstmCell>> cells_;
};

}  // namespace cpt::nn
