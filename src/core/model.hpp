// The CPT-GPT model (paper §4.4-4.5): a decoder-only transformer backbone
// with three MLP output heads, one per modality:
//   * event head  — logits over event types (categorical);
//   * interarrival head — (mu, logvar) of a normal distribution over the
//     scaled interarrival (Design 2), or a single scalar when the
//     distribution head is disabled (the §5.3 ablation);
//   * stop head — logits over {continue, stop}.
#pragma once

#include <memory>
#include <string>

#include "nn/infer.hpp"
#include "nn/modules.hpp"
#include "tokenizer.hpp"

namespace cpt::core {

struct CptGptConfig {
    std::size_t d_model = 64;
    std::size_t heads = 4;
    std::size_t mlp_hidden = 256;
    std::size_t blocks = 2;
    std::size_t max_seq_len = 128;
    std::size_t head_hidden = 64;
    // Design 2: predict distribution parameters for the numerical field.
    // false reproduces the "No dist. pred." ablation column of Table 8.
    bool distribution_head = true;

    // The paper's full-size configuration (§5.1): 2 blocks, embedding 128,
    // MLP hidden 1024 (~725K parameters).
    static CptGptConfig paper_scale() {
        CptGptConfig c;
        c.d_model = 128;
        c.heads = 4;
        c.mlp_hidden = 1024;
        c.blocks = 2;
        c.max_seq_len = 500;
        c.head_hidden = 128;
        return c;
    }
};

class CptGpt : public nn::Module {
public:
    CptGpt(const Tokenizer& tokenizer, const CptGptConfig& config, util::Rng& rng);

    struct Output {
        nn::Var event_logits;  // [B*T, E]
        nn::Var ia_mu;         // [B*T] (distribution head) or the scalar prediction
        nn::Var ia_logvar;     // [B*T]; null when distribution_head == false
        nn::Var stop_logits;   // [B*T, 2]
    };

    // tokens: [B, T, d_token].
    Output forward(const nn::Var& tokens) const;

    // ---- Incremental (KV-cached) decoding, used by the Sampler ----
    struct DecodeOutput {
        nn::Tensor event_logits;  // [B, E]
        nn::Tensor ia_mu;         // [B]
        nn::Tensor ia_logvar;     // [B]; empty when distribution_head == false
        nn::Tensor stop_logits;   // [B, 2]
    };
    // The decoder packs the backbone projections and make_decode_scratch
    // packs the heads (nn::PackedLinear), each from the live weights when it
    // is made: they decode the weights the model had at that moment.
    nn::TransformerDecoder make_decoder(std::size_t batch) const;

    // Reusable head buffers for decode_step: hidden activations and outputs
    // are preallocated for a fixed capacity so the steady-state decode loop
    // performs no tensor allocations. `out` holds first_rows views over the
    // *_full tensors, rebound only when the live batch shrinks (decoder
    // compaction).
    struct DecodeScratch {
        std::size_t capacity = 0;
        std::size_t batch = 0;
        // The heads, packed from the live weights when the scratch is made
        // (the decoder's snapshot rule, nn/infer.hpp).
        nn::PackedMlp event_head;
        nn::PackedMlp ia_head;
        nn::PackedMlp stop_head;
        nn::Tensor event_hidden;  // [cap, head_hidden]
        nn::Tensor ia_hidden;
        nn::Tensor stop_hidden;
        nn::Tensor ia_out;  // [cap, 2] (distribution head) or [cap, 1]
        nn::Tensor event_logits_full;
        nn::Tensor ia_mu_full;
        nn::Tensor ia_logvar_full;
        nn::Tensor stop_logits_full;
        DecodeOutput out;
    };
    DecodeScratch make_decode_scratch(std::size_t batch) const;

    // Feeds one token per row ([B, d_token]) and returns the heads' outputs
    // for that position. Numerically equivalent to forward() at the last
    // position (pinned by tests), at O(T) instead of O(T^2) per token.
    // The returned reference points into `scratch` and is overwritten by the
    // next call with that scratch.
    const DecodeOutput& decode_step(nn::TransformerDecoder& decoder, const nn::Tensor& tokens,
                                    DecodeScratch& scratch) const;
    // Convenience overload that builds a one-shot scratch (the returned
    // tensors keep the storage alive). It packs the heads on every call; a
    // decode loop should hold a DecodeScratch instead.
    DecodeOutput decode_step(nn::TransformerDecoder& decoder, const nn::Tensor& tokens) const;

    void collect(const std::string& prefix, std::vector<nn::NamedParam>& out) const override;

    const CptGptConfig& config() const { return config_; }
    std::size_t num_event_types() const { return num_events_; }

    // Persists/restores model weights together with the tokenizer scaling and
    // the initial-event-type distribution — the full release package of §4.5.
    void save_package(const std::string& path, const Tokenizer& tokenizer,
                      const std::vector<double>& initial_event_dist) const;

    struct Package {
        std::unique_ptr<CptGpt> model;
        Tokenizer tokenizer;
        std::vector<double> initial_event_dist;
    };
    static Package load_package(const std::string& path, cellular::Generation generation,
                                const CptGptConfig& config);

private:
    CptGptConfig config_;
    std::size_t num_events_;
    nn::Transformer backbone_;
    nn::Mlp event_head_;
    nn::Mlp ia_head_;
    nn::Mlp stop_head_;
};

// Copies every parameter value of `src` into `dst` in place (both models
// must have identical architecture: parameter names and shapes are checked).
// This is how a pretrained model seeds per-slice fine-tuning (Design 3)
// without a save/load round trip through disk.
void copy_weights(const CptGpt& src, CptGpt& dst);

}  // namespace cpt::core
