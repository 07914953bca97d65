#include "model.hpp"

#include <algorithm>

#include "nn/serialize.hpp"
#include "util/check.hpp"

namespace cpt::core {

namespace {

nn::TransformerConfig backbone_config(const Tokenizer& tokenizer, const CptGptConfig& config) {
    nn::TransformerConfig bc;
    bc.d_token = tokenizer.d_token();
    bc.d_model = config.d_model;
    bc.heads = config.heads;
    bc.mlp_hidden = config.mlp_hidden;
    bc.blocks = config.blocks;
    bc.max_seq_len = config.max_seq_len;
    return bc;
}

}  // namespace

CptGpt::CptGpt(const Tokenizer& tokenizer, const CptGptConfig& config, util::Rng& rng)
    : config_(config),
      num_events_(tokenizer.num_event_types()),
      backbone_(backbone_config(tokenizer, config), rng),
      event_head_(config.d_model, config.head_hidden, num_events_, rng),
      ia_head_(config.d_model, config.head_hidden, config.distribution_head ? 2 : 1, rng),
      stop_head_(config.d_model, config.head_hidden, 2, rng) {}

CptGpt::Output CptGpt::forward(const nn::Var& tokens) const {
    const auto& ts = tokens->value.shape();
    CPT_CHECK_EQ(ts.size(), std::size_t{3}, " CptGpt::forward: expected [B, T, d_token], got ",
                 nn::shape_to_string(ts));
    const std::size_t rows = ts[0] * ts[1];

    nn::Var h = backbone_.forward(tokens);             // [B, T, D]
    nn::Var flat = nn::reshape(h, {rows, config_.d_model});

    Output out;
    out.event_logits = event_head_.forward(flat);       // [rows, E]
    nn::Var ia = ia_head_.forward(flat);                // [rows, 2] or [rows, 1]
    if (config_.distribution_head) {
        out.ia_mu = nn::reshape(nn::slice_lastdim(ia, 0, 1), {rows});
        out.ia_logvar = nn::reshape(nn::slice_lastdim(ia, 1, 1), {rows});
    } else {
        out.ia_mu = nn::reshape(ia, {rows});
        out.ia_logvar = nullptr;
    }
    out.stop_logits = stop_head_.forward(flat);         // [rows, 2]
    return out;
}

nn::TransformerDecoder CptGpt::make_decoder(std::size_t batch) const {
    return nn::TransformerDecoder(backbone_, batch);
}

nn::TransformerDecoder CptGpt::make_decoder(std::size_t batch, nn::Precision precision) const {
    nn::DecodeOptions opts;
    if (precision != nn::Precision::kFp32) {
        CPT_CHECK(quant_ != nullptr,
                  "make_decoder: int8 decoding requires quantize_weights() or a quantized "
                  "checkpoint");
        opts.quant = &quant_->backbone;
        opts.kv_fp16 = true;
    }
    return nn::TransformerDecoder(backbone_, batch, opts);
}

void CptGpt::quantize_weights() {
    auto q = std::make_shared<CptGptQuant>();
    q->backbone = nn::TransformerQuant::from(backbone_);
    q->event_head = nn::QuantMlp::from(event_head_);
    q->ia_head = nn::QuantMlp::from(ia_head_);
    q->stop_head = nn::QuantMlp::from(stop_head_);
    quant_ = std::move(q);
}

const CptGptQuant& CptGpt::quantized_weights() const {
    CPT_CHECK(quant_ != nullptr, "quantized_weights: call quantize_weights() first");
    return *quant_;
}

CptGpt::DecodeScratch CptGpt::make_decode_scratch(std::size_t batch) const {
    return make_decode_scratch(batch, nn::Precision::kFp32);
}

CptGpt::DecodeScratch CptGpt::make_decode_scratch(std::size_t batch,
                                                  nn::Precision precision) const {
    if (precision == nn::Precision::kInt8W8A32) {
        CPT_CHECK(quant_ != nullptr,
                  "make_decode_scratch: int8 decoding requires quantized weights");
    }
    DecodeScratch s;
    s.capacity = batch;
    s.batch = batch;
    s.precision = precision;
    if (precision == nn::Precision::kInt8W8A32) s.qscratch.ensure(batch, config_.d_model);
    s.event_hidden = nn::Tensor({batch, config_.head_hidden});
    s.ia_hidden = nn::Tensor({batch, config_.head_hidden});
    s.stop_hidden = nn::Tensor({batch, config_.head_hidden});
    s.ia_out = nn::Tensor({batch, config_.distribution_head ? std::size_t{2} : std::size_t{1}});
    s.event_logits_full = nn::Tensor({batch, num_events_});
    s.ia_mu_full = nn::Tensor({batch});
    if (config_.distribution_head) s.ia_logvar_full = nn::Tensor({batch});
    s.stop_logits_full = nn::Tensor({batch, 2});
    s.out.event_logits = s.event_logits_full;
    s.out.ia_mu = s.ia_mu_full;
    s.out.ia_logvar = s.ia_logvar_full;
    s.out.stop_logits = s.stop_logits_full;
    return s;
}

const CptGpt::DecodeOutput& CptGpt::decode_step(nn::TransformerDecoder& decoder,
                                                const nn::Tensor& tokens,
                                                DecodeScratch& scratch) const {
    const nn::Tensor& hidden = decoder.step(tokens);
    const std::size_t b = hidden.dim(0);
    CPT_CHECK_LE(b, scratch.capacity, " CptGpt::decode_step: batch exceeds scratch capacity");
    if (scratch.batch != b) {
        scratch.batch = b;
        scratch.out.event_logits = scratch.event_logits_full.first_rows(b);
        scratch.out.ia_mu = scratch.ia_mu_full.first_rows(b);
        if (config_.distribution_head) {
            scratch.out.ia_logvar = scratch.ia_logvar_full.first_rows(b);
        }
        scratch.out.stop_logits = scratch.stop_logits_full.first_rows(b);
    }
    // The heads run through the inference fast path on the caller's thread
    // (same per-element arithmetic as the autograd modules; pinned by
    // DecodeStepMatchesForwardHeads).
    const float* ph = hidden.data().data();
    if (scratch.precision == nn::Precision::kInt8W8A32) {
        CPT_CHECK(quant_ != nullptr, "decode_step: int8 scratch but no quantized weights");
        quant_->event_head.forward_rows(ph, scratch.event_hidden.data().data(),
                                        scratch.out.event_logits.data().data(), b,
                                        scratch.qscratch);
        quant_->ia_head.forward_rows(ph, scratch.ia_hidden.data().data(),
                                     scratch.ia_out.data().data(), b, scratch.qscratch);
        quant_->stop_head.forward_rows(ph, scratch.stop_hidden.data().data(),
                                       scratch.out.stop_logits.data().data(), b,
                                       scratch.qscratch);
    } else {
        event_head_.forward_rows(ph, scratch.event_hidden.data().data(),
                                 scratch.out.event_logits.data().data(), b);
        ia_head_.forward_rows(ph, scratch.ia_hidden.data().data(), scratch.ia_out.data().data(),
                              b);
        stop_head_.forward_rows(ph, scratch.stop_hidden.data().data(),
                                scratch.out.stop_logits.data().data(), b);
    }
    const float* pia = scratch.ia_out.data().data();
    float* mu = scratch.out.ia_mu.data().data();
    if (config_.distribution_head) {
        float* lv = scratch.out.ia_logvar.data().data();
        for (std::size_t r = 0; r < b; ++r) {
            mu[r] = pia[r * 2];
            lv[r] = pia[r * 2 + 1];
        }
    } else {
        std::copy_n(pia, b, mu);
    }
    return scratch.out;
}

CptGpt::DecodeOutput CptGpt::decode_step(nn::TransformerDecoder& decoder,
                                         const nn::Tensor& tokens) const {
    DecodeScratch scratch = make_decode_scratch(decoder.batch());
    // Copying the output tensors shares their storage, which outlives the
    // local scratch.
    return decode_step(decoder, tokens, scratch);
}

void CptGpt::collect(const std::string& prefix, std::vector<nn::NamedParam>& out) const {
    backbone_.collect(prefix + "backbone.", out);
    event_head_.collect(prefix + "event_head.", out);
    ia_head_.collect(prefix + "ia_head.", out);
    stop_head_.collect(prefix + "stop_head.", out);
}

void CptGpt::save_package(const std::string& path, const Tokenizer& tokenizer,
                          const std::vector<double>& initial_event_dist,
                          nn::Precision precision) const {
    CPT_CHECK_EQ(initial_event_dist.size(), num_events_,
                 " save_package: initial distribution size vs event vocabulary");
    auto params = named_parameters("cptgpt.");
    // Pack tokenizer scaling and the bootstrap distribution as extra tensors.
    std::vector<float> meta{static_cast<float>(tokenizer.min_log_interarrival()),
                            static_cast<float>(tokenizer.max_log_interarrival())};
    params.push_back({"meta.ia_scaling", nn::make_var(nn::Tensor::from(meta, {2}))});
    std::vector<float> dist(initial_event_dist.begin(), initial_event_dist.end());
    params.push_back(
        {"meta.initial_event_dist", nn::make_var(nn::Tensor::from(dist, {num_events_}))});
    if (precision == nn::Precision::kInt8W8A32) {
        // Every Linear weight matrix (name "*.weight", always rank 2) goes
        // int8; biases, LayerNorm params and the positional table stay fp32.
        std::vector<std::string> quantize;
        for (const auto& np : params) {
            const auto& n = np.name;
            if (n.size() > 7 && n.compare(n.size() - 7, 7, ".weight") == 0) quantize.push_back(n);
        }
        nn::save_parameters(path, params, quantize);
    } else {
        nn::save_parameters(path, params);
    }
}

std::vector<std::pair<std::string, nn::QuantLinear*>> CptGpt::quant_entries() {
    CPT_CHECK(quant_ != nullptr, "quant_entries: no quantized weights");
    std::vector<std::pair<std::string, nn::QuantLinear*>> entries;
    const auto add = [&entries](const std::string& name, nn::QuantLinear& l) {
        entries.emplace_back("cptgpt." + name + ".weight", &l);
    };
    add("backbone.input_proj", quant_->backbone.input_proj);
    for (std::size_t i = 0; i < quant_->backbone.blocks.size(); ++i) {
        auto& b = quant_->backbone.blocks[i];
        const std::string p = "backbone.block" + std::to_string(i) + ".";
        add(p + "attn.wq", b.wq);
        add(p + "attn.wk", b.wk);
        add(p + "attn.wv", b.wv);
        add(p + "attn.wo", b.wo);
        add(p + "mlp.fc1", b.mlp.fc1);
        add(p + "mlp.fc2", b.mlp.fc2);
    }
    const auto add_head = [&add](const std::string& name, nn::QuantMlp& h) {
        add(name + ".fc1", h.fc1);
        add(name + ".fc2", h.fc2);
    };
    add_head("event_head", quant_->event_head);
    add_head("ia_head", quant_->ia_head);
    add_head("stop_head", quant_->stop_head);
    return entries;
}

void CptGpt::install_quantized(const nn::QuantSections& sections) {
    // Build the quantized structure from the (dequantized) fp32 weights, then
    // overwrite each matrix with the checkpoint's exact scale/payload bytes —
    // re-quantizing a dequantized matrix can drift the scales by 1 ulp.
    quantize_weights();
    auto entries = quant_entries();
    CPT_CHECK_EQ(sections.size(), entries.size(),
                 " install_quantized: checkpoint quantized-section count vs model matrices");
    for (auto& [name, lin] : entries) {
        const auto it = sections.find(name);
        CPT_CHECK(it != sections.end(), "install_quantized: checkpoint lacks q8 section '", name,
                  "'");
        const auto& sec = it->second;
        CPT_CHECK_EQ(sec.shape.size(), std::size_t{2},
                     " install_quantized: q8 section rank for ", name);
        CPT_CHECK_EQ(sec.shape[0], lin->out, " install_quantized: rows of ", name);
        CPT_CHECK_EQ(sec.shape[1], lin->in, " install_quantized: cols of ", name);
        lin->install(sec.payload, sec.scale);
    }
}

CptGpt::Package CptGpt::load_package(const std::string& path, cellular::Generation generation,
                                     const CptGptConfig& config) {
    // Build a skeleton (weights are overwritten by the checkpoint; the
    // tokenizer scaling is patched after reading the meta tensors).
    util::Rng rng(0);
    Tokenizer placeholder(generation, 0.0, 1.0);
    auto model = std::make_unique<CptGpt>(placeholder, config, rng);
    auto params = model->named_parameters("cptgpt.");
    auto ia_scaling = nn::make_var(nn::Tensor::zeros({2}));
    auto dist = nn::make_var(nn::Tensor::zeros({model->num_event_types()}));
    params.push_back({"meta.ia_scaling", ia_scaling});
    params.push_back({"meta.initial_event_dist", dist});
    // Quantization-aware load: q8 sections are dequantized into the fp32
    // params above AND handed back verbatim so the model serves the exact
    // checkpoint payload (no fp32 weights needed on disk for int8 hubs).
    nn::QuantSections sections;
    nn::load_parameters(path, params, &sections);
    if (!sections.empty()) model->install_quantized(sections);

    Package pkg{std::move(model),
                Tokenizer(generation, ia_scaling->value[0], ia_scaling->value[1]),
                {},
                !sections.empty()};
    pkg.initial_event_dist.assign(dist->value.data().begin(), dist->value.data().end());
    return pkg;
}

void copy_weights(const CptGpt& src, CptGpt& dst) {
    const auto from = src.named_parameters();
    const auto to = dst.named_parameters();
    CPT_CHECK_EQ(from.size(), to.size(), " copy_weights: parameter count mismatch");
    for (std::size_t i = 0; i < from.size(); ++i) {
        CPT_CHECK(from[i].name == to[i].name, "copy_weights: parameter ", i, " name mismatch: ",
                  from[i].name, " vs ", to[i].name);
        CPT_CHECK(from[i].param->value.same_shape(to[i].param->value),
                  "copy_weights: shape mismatch for ", from[i].name);
        auto s = from[i].param->value.data();
        auto d = to[i].param->value.data();
        std::copy(s.begin(), s.end(), d.begin());
    }
}

}  // namespace cpt::core
