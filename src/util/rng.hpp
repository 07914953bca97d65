// Deterministic pseudo-random number generation for the whole project.
//
// Every stochastic component (trace synthesis, model initialization, SGD
// shuffling, samplers) takes an explicit Rng so experiments are reproducible
// from a single seed. The engine is xoshiro256++, which is fast, has a 256-bit
// state, and passes BigCrush; we deliberately avoid std::mt19937 so that the
// bit streams are stable across standard-library implementations.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

namespace cpt::util {

// xoshiro256++ engine (Blackman & Vigna). Satisfies UniformRandomBitGenerator.
class Xoshiro256pp {
public:
    using result_type = std::uint64_t;

    explicit Xoshiro256pp(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) { reseed(seed); }

    // SplitMix64-expands `seed` into the 256-bit state, so nearby seeds give
    // unrelated streams.
    void reseed(std::uint64_t seed);

    result_type operator()();

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~0ULL; }

private:
    std::array<std::uint64_t, 4> s_{};
};

// High-level sampling facade used throughout the project.
class Rng {
public:
    explicit Rng(std::uint64_t seed = 1) : engine_(seed) {}

    // Derives an independent generator; `salt` distinguishes children created
    // from the same parent state.
    Rng fork(std::uint64_t salt);

    std::uint64_t next_u64() { return engine_(); }

    // Uniform in [0, 1).
    double uniform();
    // Uniform in [lo, hi).
    double uniform(double lo, double hi);
    // Uniform integer in [0, n). Requires n > 0.
    std::size_t uniform_index(std::size_t n);

    bool bernoulli(double p);

    // Standard normal via Box-Muller (cached spare).
    double normal();
    double normal(double mean, double stddev);
    double lognormal(double mu, double sigma);
    double exponential(double rate);

    // Samples an index from unnormalized non-negative weights. Requires at
    // least one strictly positive weight.
    std::size_t categorical(std::span<const double> weights);
    std::size_t categorical(std::span<const float> weights);

    template <typename T>
    void shuffle(std::vector<T>& v) {
        for (std::size_t i = v.size(); i > 1; --i) {
            std::swap(v[i - 1], v[uniform_index(i)]);
        }
    }

private:
    Xoshiro256pp engine_;
    bool has_spare_normal_ = false;
    double spare_normal_ = 0.0;
};

}  // namespace cpt::util
