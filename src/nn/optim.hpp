// First-order optimizers over autograd parameters, plus gradient clipping.
#pragma once

#include <span>
#include <vector>

#include "autograd.hpp"

namespace cpt::nn {

// Scales all gradients so their joint L2 norm is at most `max_norm`; returns
// the pre-clip norm.
double clip_grad_norm(std::span<const Var> params, double max_norm);

class Optimizer {
public:
    virtual ~Optimizer() = default;
    // Applies one update using the parameters' current gradients.
    virtual void step() = 0;
    void zero_grad();

protected:
    explicit Optimizer(std::vector<Var> params) : params_(std::move(params)) {}
    std::vector<Var> params_;
};

class Sgd : public Optimizer {
public:
    Sgd(std::vector<Var> params, float lr, float momentum = 0.0f);
    void step() override;

private:
    float lr_;
    float momentum_;
    std::vector<Tensor> velocity_;
};

// Adam with optional decoupled weight decay (AdamW when weight_decay > 0):
// the decay is applied directly to the weights, not through the moment
// estimates, per Loshchilov & Hutter.
class Adam : public Optimizer {
public:
    Adam(std::vector<Var> params, float lr, float beta1 = 0.9f, float beta2 = 0.999f,
         float eps = 1e-8f, float weight_decay = 0.0f);
    void step() override;

    // Fused global-norm clip + update: computes the joint gradient L2 norm
    // (one pass, no gradient mutation), folds the clip factor into the Adam
    // update as a gradient scale, and applies it in a single pass per
    // parameter via the tier-dispatched kernels. Equivalent to
    // clip_grad_norm(params, max_norm) followed by step() — the fold is a
    // bit-exact identity on the scalar tier — but touches each gradient
    // element once instead of three times. Returns the pre-clip norm.
    double step_clipped(double max_norm);

    void set_lr(float lr) { lr_ = lr; }
    float lr() const { return lr_; }

private:
    // One update pass with gradients scaled by `gscale` on the fly.
    void apply(float gscale);

    float lr_;
    float beta1_;
    float beta2_;
    float eps_;
    float weight_decay_;
    long t_ = 0;
    std::vector<Tensor> m_;
    std::vector<Tensor> v_;
};

}  // namespace cpt::nn
