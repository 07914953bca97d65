#include "rng.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

namespace cpt::util {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
}

}  // namespace

void Xoshiro256pp::reseed(std::uint64_t seed) {
    std::uint64_t sm = seed;
    for (auto& word : s_) word = splitmix64(sm);
    // All-zero state would be a fixed point; splitmix64 cannot produce four
    // zero outputs in a row, but guard anyway.
    if (s_[0] == 0 && s_[1] == 0 && s_[2] == 0 && s_[3] == 0) s_[0] = 1;
}

Xoshiro256pp::result_type Xoshiro256pp::operator()() {
    const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
}

Rng Rng::fork(std::uint64_t salt) {
    // Mix the parent's stream with the salt so forks with different salts are
    // decorrelated even when taken from the same parent state.
    std::uint64_t seed = next_u64() ^ (salt * 0x9e3779b97f4a7c15ULL + 0x7f4a7c15ULL);
    return Rng(seed);
}

double Rng::uniform() {
    // 53 high bits -> double in [0, 1).
    return static_cast<double>(engine_() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::size_t Rng::uniform_index(std::size_t n) {
    if (n == 0) throw std::invalid_argument("Rng::uniform_index: n must be > 0");
    // Rejection sampling to avoid modulo bias.
    const std::uint64_t limit = (~0ULL) - (~0ULL) % n;
    std::uint64_t x;
    do {
        x = engine_();
    } while (x >= limit);
    return static_cast<std::size_t>(x % n);
}

bool Rng::bernoulli(double p) { return uniform() < p; }

double Rng::normal() {
    if (has_spare_normal_) {
        has_spare_normal_ = false;
        return spare_normal_;
    }
    // Box-Muller; u1 is re-drawn to avoid log(0).
    double u1;
    do {
        u1 = uniform();
    } while (u1 <= 0.0);
    const double u2 = uniform();
    const double mag = std::sqrt(-2.0 * std::log(u1));
    spare_normal_ = mag * std::sin(2.0 * std::numbers::pi * u2);
    has_spare_normal_ = true;
    return mag * std::cos(2.0 * std::numbers::pi * u2);
}

double Rng::normal(double mean, double stddev) { return mean + stddev * normal(); }

double Rng::lognormal(double mu, double sigma) { return std::exp(normal(mu, sigma)); }

double Rng::exponential(double rate) {
    if (rate <= 0.0) throw std::invalid_argument("Rng::exponential: rate must be > 0");
    double u;
    do {
        u = uniform();
    } while (u <= 0.0);
    return -std::log(u) / rate;
}

namespace {

template <typename T>
std::size_t categorical_impl(Rng& rng, std::span<const T> weights) {
    double total = 0.0;
    for (T w : weights) {
        if (w < 0) throw std::invalid_argument("Rng::categorical: negative weight");
        total += static_cast<double>(w);
    }
    if (total <= 0.0) throw std::invalid_argument("Rng::categorical: all weights zero");
    double r = rng.uniform() * total;
    for (std::size_t i = 0; i < weights.size(); ++i) {
        r -= static_cast<double>(weights[i]);
        if (r < 0.0) return i;
    }
    // Floating point slack: fall back to the last positive weight.
    for (std::size_t i = weights.size(); i-- > 0;) {
        if (weights[i] > 0) return i;
    }
    return weights.size() - 1;
}

}  // namespace

std::size_t Rng::categorical(std::span<const double> weights) {
    return categorical_impl<double>(*this, weights);
}

std::size_t Rng::categorical(std::span<const float> weights) {
    return categorical_impl<float>(*this, weights);
}

}  // namespace cpt::util
