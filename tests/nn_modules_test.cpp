// Module-level tests: shape behaviour, parameter registration, gradient flow
// through composite modules, and tiny end-to-end learning checks proving the
// transformer and LSTM can actually fit data.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "nn/modules.hpp"
#include "nn/optim.hpp"
#include "util/cpu.hpp"

namespace cpt::nn {
namespace {

TEST(LinearTest, ShapesAndParamCount) {
    util::Rng rng(1);
    Linear fc(4, 3, rng);
    EXPECT_EQ(fc.num_parameters(), 4u * 3u + 3u);
    Var x = make_var(Tensor::randn(rng, {2, 5, 4}));
    Var y = fc.forward(x);
    EXPECT_EQ(y->value.shape(), (Shape{2, 5, 3}));
    EXPECT_THROW(fc.forward(make_var(Tensor::zeros({2, 5}))), std::invalid_argument);
}

TEST(LinearTest, ComputesAffineMap) {
    util::Rng rng(2);
    Linear fc(2, 1, rng);
    // Overwrite weights with known values: y = 2a - b + 0.5.
    fc.weight()->value.data()[0] = 2.0f;
    fc.weight()->value.data()[1] = -1.0f;
    fc.bias()->value.data()[0] = 0.5f;
    Var x = make_var(Tensor::from({3.0f, 4.0f}, {1, 2}));
    Var y = fc.forward(x);
    EXPECT_NEAR(y->value[0], 2.0f * 3.0f - 4.0f + 0.5f, 1e-5f);
}

// The decode snapshot computes Linear::forward()'s values bit for bit on
// every tier (gemm_nt_decode runs gemm_nt's per-element chain), and keeps the
// weights it was packed from when the Linear changes afterwards.
TEST(LinearTest, PackedRowsEqualForwardAndKeepTheirSnapshot) {
    util::Rng rng(3);
    Linear fc(65, 70, rng, 0.5f);
    for (float& b : fc.bias()->value.data()) b = static_cast<float>(rng.normal());
    const Tensor x = Tensor::randn(rng, {13, 65});
    const PackedLinear packed = PackedLinear::from(fc);
    for (util::SimdTier tier : util::available_simd_tiers()) {
        const util::ScopedSimdTier guard(tier);
        const Tensor want = fc.forward(make_var(x))->value;
        Tensor got({13, 70});
        packed.forward_rows(x.data().data(), got.data().data(), 13);
        EXPECT_EQ(std::memcmp(got.data().data(), want.data().data(), want.numel() * sizeof(float)),
                  0)
            << "tier " << util::simd_tier_name(tier);
    }
    Tensor before({13, 70});
    packed.forward_rows(x.data().data(), before.data().data(), 13);
    fc.weight()->value.data()[0] += 1.0f;
    Tensor after({13, 70});
    packed.forward_rows(x.data().data(), after.data().data(), 13);
    EXPECT_EQ(std::memcmp(before.data().data(), after.data().data(), before.numel() * sizeof(float)),
              0);
}

TEST(MlpTest, GradFlowsToAllParams) {
    util::Rng rng(3);
    Mlp mlp(3, 8, 2, rng);
    Var x = make_var(Tensor::randn(rng, {4, 3}));
    Var loss = mean_all(mul(mlp.forward(x), mlp.forward(x)));
    backward(loss);
    for (const auto& p : mlp.parameters()) {
        ASSERT_EQ(p->grad.numel(), p->value.numel());
    }
}

TEST(AttentionTest, OutputShapeAndCausality) {
    util::Rng rng(4);
    MultiHeadSelfAttention attn(8, 2, rng);
    Var x = make_var(Tensor::randn(rng, {2, 5, 8}));
    Var y = attn.forward(x);
    EXPECT_EQ(y->value.shape(), (Shape{2, 5, 8}));

    // Causality: perturbing a later timestep must not change earlier outputs.
    Tensor x2 = x->value.clone();
    for (std::size_t j = 0; j < 8; ++j) x2.data()[(0 * 5 + 4) * 8 + j] += 3.0f;  // t=4, batch 0
    Var y2 = attn.forward(make_var(x2));
    for (std::size_t t = 0; t < 4; ++t) {
        for (std::size_t j = 0; j < 8; ++j) {
            EXPECT_NEAR(y->value[(0 * 5 + t) * 8 + j], y2->value[(0 * 5 + t) * 8 + j], 1e-5f)
                << "t=" << t << " j=" << j;
        }
    }
}

TEST(TransformerTest, EndToEndShapesAndCausality) {
    util::Rng rng(5);
    TransformerConfig cfg;
    cfg.d_token = 6;
    cfg.d_model = 16;
    cfg.heads = 2;
    cfg.mlp_hidden = 32;
    cfg.blocks = 2;
    cfg.max_seq_len = 10;
    Transformer model(cfg, rng);
    Var x = make_var(Tensor::randn(rng, {3, 7, 6}));
    Var y = model.forward(x);
    EXPECT_EQ(y->value.shape(), (Shape{3, 7, 16}));

    // Causality through the whole stack.
    Tensor x2 = x->value.clone();
    for (std::size_t j = 0; j < 6; ++j) x2.data()[(0 * 7 + 6) * 6 + j] = 9.0f;
    Var y2 = model.forward(make_var(x2));
    for (std::size_t t = 0; t < 6; ++t) {
        for (std::size_t j = 0; j < 16; ++j) {
            EXPECT_NEAR(y->value[(0 * 7 + t) * 16 + j], y2->value[(0 * 7 + t) * 16 + j], 1e-4f);
        }
    }
    // Too-long input rejected.
    EXPECT_THROW(model.forward(make_var(Tensor::zeros({1, 11, 6}))), std::invalid_argument);
}

TEST(TransformerTest, LearnsDeterministicNextToken) {
    // Task: tokens alternate between two one-hot symbols; model must predict
    // the next symbol. A transformer that cannot fit this is broken.
    util::Rng rng(6);
    TransformerConfig cfg;
    cfg.d_token = 2;
    cfg.d_model = 16;
    cfg.heads = 2;
    cfg.mlp_hidden = 32;
    cfg.blocks = 1;
    cfg.max_seq_len = 8;
    Transformer model(cfg, rng);
    Linear head(16, 2, rng);

    std::vector<Var> params = model.parameters();
    for (auto& p : head.parameters()) params.push_back(p);
    Adam opt(params, 3e-3f);

    const std::size_t b = 4;
    const std::size_t t = 8;
    std::vector<float> input(b * t * 2, 0.0f);
    std::vector<int> targets(b * t);
    for (std::size_t i = 0; i < b; ++i) {
        for (std::size_t k = 0; k < t; ++k) {
            const int sym = static_cast<int>((k + i) % 2);
            input[(i * t + k) * 2 + static_cast<std::size_t>(sym)] = 1.0f;
            targets[i * t + k] = 1 - sym;  // next symbol alternates
        }
    }
    float first_loss = 0.0f;
    float last_loss = 0.0f;
    for (int step = 0; step < 150; ++step) {
        Var x = make_var(Tensor::from(input, {b, t, 2}));
        Var logits = reshape(head.forward(model.forward(x)), {b * t, 2});
        Var loss = cross_entropy(logits, targets);
        opt.zero_grad();
        backward(loss);
        opt.step();
        if (step == 0) first_loss = loss->value[0];
        last_loss = loss->value[0];
    }
    EXPECT_LT(last_loss, 0.1f);
    EXPECT_LT(last_loss, first_loss * 0.3f);
}

TEST(LstmCellTest, StateShapesAndGradFlow) {
    util::Rng rng(7);
    LstmCell cell(3, 5, rng);
    auto st = cell.zero_state(2);
    EXPECT_EQ(st.h->value.shape(), (Shape{2, 5}));
    Var x = make_var(Tensor::randn(rng, {2, 3}));
    auto st2 = cell.step(x, st);
    EXPECT_EQ(st2.h->value.shape(), (Shape{2, 5}));
    Var loss = mean_all(mul(st2.h, st2.h));
    backward(loss);
    for (const auto& p : cell.parameters()) EXPECT_EQ(p->grad.numel(), p->value.numel());
}

TEST(LstmStackTest, LearnsToRememberFirstInput) {
    // Task: output after 6 steps should equal the first input bit — requires
    // carrying state across steps.
    util::Rng rng(8);
    LstmStack lstm(1, 12, 1, rng);
    Linear head(12, 1, rng);
    std::vector<Var> params = lstm.parameters();
    for (auto& p : head.parameters()) params.push_back(p);
    Adam opt(params, 1e-2f);

    util::Rng data_rng(99);
    float last_loss = 1e9f;
    for (int step = 0; step < 200; ++step) {
        const std::size_t b = 8;
        std::vector<float> first_bits(b);
        auto state = lstm.zero_state(b);
        Var out;
        for (int k = 0; k < 6; ++k) {
            std::vector<float> xin(b);
            for (std::size_t i = 0; i < b; ++i) {
                const float bit = data_rng.bernoulli(0.5) ? 1.0f : 0.0f;
                xin[i] = bit;
                if (k == 0) first_bits[i] = bit;
            }
            auto [h, next] = lstm.step(make_var(Tensor::from(xin, {b, 1})), state);
            state = std::move(next);
            out = h;
        }
        Var logits = reshape(head.forward(out), {b});
        Var loss = bce_with_logits(logits, first_bits);
        opt.zero_grad();
        backward(loss);
        opt.step();
        last_loss = loss->value[0];
    }
    EXPECT_LT(last_loss, 0.25f);
}

TEST(ModuleTest, NamedParametersAreUnique) {
    util::Rng rng(9);
    TransformerConfig cfg;
    cfg.d_token = 4;
    cfg.d_model = 8;
    cfg.heads = 2;
    cfg.mlp_hidden = 16;
    cfg.blocks = 2;
    cfg.max_seq_len = 4;
    Transformer model(cfg, rng);
    auto named = model.named_parameters("model.");
    std::set<std::string> names;
    for (const auto& [name, p] : named) {
        EXPECT_TRUE(names.insert(name).second) << "duplicate parameter name " << name;
        EXPECT_TRUE(name.starts_with("model."));
    }
}

}  // namespace
}  // namespace cpt::nn
