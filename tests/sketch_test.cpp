// Streaming sketch suite (DESIGN.md §14): quantile accuracy against exact
// order statistics, the rank-error contract, merge determinism under the
// canonical fold order (and its CPT_THREADS invariance), the sketch-KS
// estimate against the exact statistic, and CountTable exactness.
#include "util/sketch.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace {

using cpt::util::CountTable;
using cpt::util::QuantileSketch;

std::vector<double> lognormal_sample(std::uint64_t seed, std::size_t n) {
    cpt::util::Rng rng(seed);
    std::vector<double> xs(n);
    for (auto& x : xs) x = std::exp(rng.normal(0.0, 1.0));
    return xs;
}

// Rank of `v` in the sample as a fraction (share of items <= v).
double exact_rank(const std::vector<double>& sorted, double v) {
    const auto it = std::upper_bound(sorted.begin(), sorted.end(), v);
    return static_cast<double>(it - sorted.begin()) / static_cast<double>(sorted.size());
}

TEST(QuantileSketch, SmallSampleIsExact) {
    QuantileSketch s(64);
    for (int i = 50; i >= 1; --i) s.add(i);
    EXPECT_EQ(s.count(), 50u);
    EXPECT_EQ(s.rank_error_bound(), 0.0);  // no compaction at n < k: exact
    EXPECT_DOUBLE_EQ(s.quantile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(s.quantile(0.5), 25.0);
    EXPECT_DOUBLE_EQ(s.quantile(1.0), 50.0);
}

TEST(QuantileSketch, QuantilesWithinRankErrorBound) {
    const auto xs = lognormal_sample(7, 200000);
    QuantileSketch s(256);
    for (double x : xs) s.add(x);
    EXPECT_EQ(s.count(), xs.size());
    EXPECT_GT(s.rank_error_bound(), 0.0);
    EXPECT_LT(s.rank_error_bound(), 0.12);

    auto sorted = xs;
    std::sort(sorted.begin(), sorted.end());
    for (double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
        const double est = s.quantile(q);
        // The value returned for rank q must itself sit within the rank-error
        // bound of rank q in the exact sample.
        EXPECT_NEAR(exact_rank(sorted, est), q, s.rank_error_bound() + 1e-9)
            << "q=" << q << " est=" << est;
    }
}

TEST(QuantileSketch, CdfIsNormalizedAndMonotone) {
    const auto xs = lognormal_sample(11, 50000);
    QuantileSketch s(128);
    for (double x : xs) s.add(x);
    const auto cdf = s.cdf();
    ASSERT_FALSE(cdf.values.empty());
    EXPECT_DOUBLE_EQ(cdf.total, static_cast<double>(xs.size()));
    for (std::size_t i = 1; i < cdf.values.size(); ++i) {
        EXPECT_LT(cdf.values[i - 1], cdf.values[i]);
        EXPECT_LT(cdf.cum[i - 1], cdf.cum[i]);
    }
    EXPECT_DOUBLE_EQ(cdf.cum.back(), cdf.total);
}

TEST(QuantileSketch, CanonicalFoldIsDeterministic) {
    // Chunked adds folded in ascending chunk order must reproduce bit-equal
    // state on every run — and regardless of CPT_THREADS, because the fold
    // order is a property of the chunk sequence, not of the pool.
    const auto xs = lognormal_sample(13, 40000);
    constexpr std::size_t kChunk = 1000;

    auto fold = [&] {
        QuantileSketch total(64);
        for (std::size_t base = 0; base < xs.size(); base += kChunk) {
            QuantileSketch part(64);
            const std::size_t end = std::min(xs.size(), base + kChunk);
            for (std::size_t i = base; i < end; ++i) part.add(xs[i]);
            total.merge(part);
        }
        return total;
    };

    const QuantileSketch a = fold();
    const QuantileSketch b = fold();
    EXPECT_TRUE(a == b);

    const std::size_t prev = cpt::util::global_pool().threads();
    cpt::util::set_global_threads(3);
    const QuantileSketch c = fold();
    cpt::util::set_global_threads(prev);
    EXPECT_TRUE(a == c);
}

TEST(QuantileSketch, MergePreservesCountAndBound) {
    const auto xs = lognormal_sample(17, 30000);
    QuantileSketch whole(128);
    for (double x : xs) whole.add(x);

    QuantileSketch left(128);
    QuantileSketch right(128);
    for (std::size_t i = 0; i < xs.size(); ++i) (i < xs.size() / 2 ? left : right).add(xs[i]);
    left.merge(right);

    EXPECT_EQ(left.count(), whole.count());
    // Merged state need not equal the single-stream state (compaction is
    // lossy), but both must honor the rank-error contract.
    auto sorted = xs;
    std::sort(sorted.begin(), sorted.end());
    for (double q : {0.25, 0.5, 0.9}) {
        EXPECT_NEAR(exact_rank(sorted, left.quantile(q)), q, left.rank_error_bound() + 1e-9);
    }
}

TEST(QuantileSketch, MergeRejectsMismatchedCapacity) {
    QuantileSketch a(64);
    QuantileSketch b(128);
    EXPECT_THROW(a.merge(b), std::invalid_argument);
}

TEST(QuantileSketch, KsDistanceMatchesExactWithinBound) {
    const auto xs = lognormal_sample(19, 60000);
    auto ys = lognormal_sample(23, 60000);
    for (double& y : ys) y *= 1.3;  // genuine distribution shift

    QuantileSketch sx(256);
    QuantileSketch sy(256);
    for (double x : xs) sx.add(x);
    for (double y : ys) sy.add(y);

    const double exact = cpt::util::max_cdf_y_distance(xs, ys);
    const double est = cpt::util::max_cdf_y_distance(sx, sy);
    EXPECT_NEAR(est, exact, sx.rank_error_bound() + sy.rank_error_bound() + 1e-9);
}

TEST(QuantileSketch, KsDistanceEdgeCases) {
    QuantileSketch empty1(64);
    QuantileSketch empty2(64);
    QuantileSketch one(64);
    one.add(1.0);
    EXPECT_DOUBLE_EQ(cpt::util::max_cdf_y_distance(empty1, empty2), 0.0);
    EXPECT_DOUBLE_EQ(cpt::util::max_cdf_y_distance(one, empty1), 1.0);
    EXPECT_DOUBLE_EQ(cpt::util::max_cdf_y_distance(one, one), 0.0);
}

TEST(QuantileSketch, EmptyQuantileThrows) {
    QuantileSketch s(64);
    EXPECT_TRUE(s.empty());
    EXPECT_THROW(s.quantile(0.5), std::invalid_argument);
}

TEST(CountTable, MergeIsExactAndOrderInvariant) {
    CountTable a(3);
    a.bump(0, 5);
    a.bump(2, 7);
    CountTable b;
    b.bump(4, 11);  // grows past a's size

    CountTable ab = a;
    ab.merge(b);
    CountTable ba = b;
    ba.merge(a);
    EXPECT_TRUE(ab == ba);
    EXPECT_EQ(ab.at(0), 5u);
    EXPECT_EQ(ab.at(2), 7u);
    EXPECT_EQ(ab.at(4), 11u);
    EXPECT_EQ(ab.total(), 23u);

    const auto frac = ab.normalized(5);
    EXPECT_DOUBLE_EQ(frac[0], 5.0 / 23.0);
    EXPECT_DOUBLE_EQ(frac[4], 11.0 / 23.0);
    EXPECT_DOUBLE_EQ(frac[1], 0.0);
}

TEST(CountTable, NormalizedOfEmptyIsZeros) {
    const CountTable t;
    const auto frac = t.normalized(4);
    ASSERT_EQ(frac.size(), 4u);
    for (double f : frac) EXPECT_DOUBLE_EQ(f, 0.0);
}

}  // namespace
