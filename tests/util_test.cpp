#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/ascii.hpp"
#include "util/cli.hpp"
#include "util/cpu.hpp"
#include "util/csv.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace cpt::util {
namespace {

TEST(RngTest, Deterministic) {
    Rng a(123);
    Rng b(123);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngTest, DifferentSeedsDiffer) {
    Rng a(1);
    Rng b(2);
    int equal = 0;
    for (int i = 0; i < 64; ++i) {
        if (a.next_u64() == b.next_u64()) ++equal;
    }
    EXPECT_LT(equal, 2);
}

TEST(RngTest, UniformRange) {
    Rng rng(5);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(RngTest, UniformIndexCoversAllValuesUnbiased) {
    Rng rng(6);
    std::vector<int> counts(7, 0);
    const int n = 70000;
    for (int i = 0; i < n; ++i) ++counts[rng.uniform_index(7)];
    for (int c : counts) {
        EXPECT_GT(c, n / 7 * 0.9);
        EXPECT_LT(c, n / 7 * 1.1);
    }
}

TEST(RngTest, NormalMoments) {
    Rng rng(7);
    std::vector<double> xs(50000);
    for (auto& x : xs) x = rng.normal(2.0, 3.0);
    const Summary s = summarize(xs);
    EXPECT_NEAR(s.mean, 2.0, 0.1);
    EXPECT_NEAR(s.stddev, 3.0, 0.1);
}

TEST(RngTest, ExponentialMean) {
    Rng rng(8);
    std::vector<double> xs(50000);
    for (auto& x : xs) x = rng.exponential(0.5);
    EXPECT_NEAR(summarize(xs).mean, 2.0, 0.1);
}

TEST(RngTest, LognormalMedian) {
    Rng rng(9);
    std::vector<double> xs(50001);
    for (auto& x : xs) x = rng.lognormal(std::log(10.0), 0.9);
    std::sort(xs.begin(), xs.end());
    EXPECT_NEAR(xs[xs.size() / 2], 10.0, 0.5);
}

TEST(RngTest, CategoricalFollowsWeights) {
    Rng rng(10);
    const std::vector<double> w{1.0, 3.0, 0.0, 6.0};
    std::vector<int> counts(4, 0);
    const int n = 100000;
    for (int i = 0; i < n; ++i) ++counts[rng.categorical(std::span<const double>(w))];
    EXPECT_EQ(counts[2], 0);
    EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.1, 0.01);
    EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.3, 0.01);
    EXPECT_NEAR(counts[3] / static_cast<double>(n), 0.6, 0.01);
}

TEST(RngTest, CategoricalRejectsDegenerateWeights) {
    Rng rng(11);
    const std::vector<double> zero{0.0, 0.0};
    const std::vector<double> negative{1.0, -0.5};
    EXPECT_THROW(rng.categorical(std::span<const double>(zero)), std::invalid_argument);
    EXPECT_THROW(rng.categorical(std::span<const double>(negative)), std::invalid_argument);
}

TEST(RngTest, ForkDecorrelates) {
    Rng parent(12);
    Rng a = parent.fork(1);
    Rng b = parent.fork(2);
    int equal = 0;
    for (int i = 0; i < 64; ++i) {
        if (a.next_u64() == b.next_u64()) ++equal;
    }
    EXPECT_LT(equal, 2);
}

TEST(EcdfTest, EvaluatesStepFunction) {
    Ecdf cdf({1.0, 2.0, 3.0, 4.0});
    EXPECT_DOUBLE_EQ(cdf(0.5), 0.0);
    EXPECT_DOUBLE_EQ(cdf(1.0), 0.25);
    EXPECT_DOUBLE_EQ(cdf(2.5), 0.5);
    EXPECT_DOUBLE_EQ(cdf(4.0), 1.0);
    EXPECT_DOUBLE_EQ(cdf(9.0), 1.0);
}

TEST(EcdfTest, Quantiles) {
    Ecdf cdf({10.0, 20.0, 30.0, 40.0});
    EXPECT_DOUBLE_EQ(cdf.quantile(0.0), 10.0);
    EXPECT_DOUBLE_EQ(cdf.quantile(0.5), 20.0);
    EXPECT_DOUBLE_EQ(cdf.quantile(1.0), 40.0);
}

TEST(MaxYDistanceTest, IdenticalSamplesGiveZero) {
    const std::vector<double> xs{1, 2, 3, 4, 5};
    EXPECT_DOUBLE_EQ(max_cdf_y_distance(xs, xs), 0.0);
}

TEST(MaxYDistanceTest, DisjointSamplesGiveOne) {
    const std::vector<double> a{1, 2, 3};
    const std::vector<double> b{10, 20, 30};
    EXPECT_DOUBLE_EQ(max_cdf_y_distance(a, b), 1.0);
}

TEST(MaxYDistanceTest, KnownValue) {
    // F_a jumps to 1 at 1; F_b jumps 0.5 at 2, 1.0 at 3. At x=1 the gap is 1.
    const std::vector<double> a{1, 1};
    const std::vector<double> b{2, 3};
    EXPECT_DOUBLE_EQ(max_cdf_y_distance(a, b), 1.0);
    // Interleaved: a={1,3}, b={2,4}: at 1: 0.5-0=0.5.
    EXPECT_DOUBLE_EQ(max_cdf_y_distance(std::vector<double>{1.0, 3.0}, std::vector<double>{2.0, 4.0}),
                     0.5);
}

TEST(MaxYDistanceTest, SymmetricAndBounded) {
    Rng rng(13);
    std::vector<double> a(100);
    std::vector<double> b(137);
    for (auto& x : a) x = rng.normal();
    for (auto& x : b) x = rng.normal(0.3, 1.2);
    const double d1 = max_cdf_y_distance(a, b);
    const double d2 = max_cdf_y_distance(b, a);
    EXPECT_DOUBLE_EQ(d1, d2);
    EXPECT_GE(d1, 0.0);
    EXPECT_LE(d1, 1.0);
}

TEST(MaxYDistanceTest, EmptyHandling) {
    const std::vector<double> a{1.0};
    const std::vector<double> none;
    EXPECT_DOUBLE_EQ(max_cdf_y_distance(a, none), 1.0);
    EXPECT_DOUBLE_EQ(max_cdf_y_distance(none, none), 0.0);
}

TEST(HistogramTest, CountsSumToSampleSize) {
    Rng rng(14);
    std::vector<double> xs(1000);
    for (auto& x : xs) x = rng.lognormal(2.0, 1.0);
    const Histogram h = make_histogram(xs, 20, true);
    std::size_t total = 0;
    for (auto c : h.counts) total += c;
    EXPECT_EQ(total, xs.size());
    EXPECT_EQ(h.edges.size(), 21u);
}

TEST(StatsTest, NormalizeAndTotalVariation) {
    const std::vector<double> counts{2.0, 6.0, 2.0};
    const auto p = normalize(counts);
    EXPECT_DOUBLE_EQ(p[0], 0.2);
    EXPECT_DOUBLE_EQ(p[1], 0.6);
    const std::vector<double> q{0.2, 0.2, 0.6};
    EXPECT_NEAR(total_variation(p, q), 0.4, 1e-12);
}

TEST(CsvTest, SplitJoinRoundTrip) {
    const std::string line = "a,b,,d";
    const auto parts = split(line, ',');
    ASSERT_EQ(parts.size(), 4u);
    EXPECT_EQ(parts[2], "");
    EXPECT_EQ(join(parts, ','), line);
}

TEST(CsvTest, ParseStrict) {
    EXPECT_DOUBLE_EQ(parse_double(" 2.5 "), 2.5);
    EXPECT_EQ(parse_int("-42"), -42);
    EXPECT_THROW(parse_double("2.5x"), std::invalid_argument);
    EXPECT_THROW(parse_int(""), std::invalid_argument);
}

TEST(TextTableTest, RendersAlignedColumns) {
    TextTable t({"name", "value"});
    t.add_row({"alpha", "1"});
    t.add_row({"b", "22"});
    const std::string r = t.render();
    EXPECT_NE(r.find("alpha"), std::string::npos);
    EXPECT_NE(r.find("22"), std::string::npos);
    EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(AsciiTest, FmtHelpers) {
    EXPECT_EQ(fmt(1.2345, 2), "1.23");
    EXPECT_EQ(fmt_pct(0.123456, 1), "12.3%");
}

TEST(AsciiTest, AppendfIsNotBoundedByABuffer) {
    std::string out = "x";
    const std::string long_arg(1000, 'a');
    util::appendf(out, "[%s|%d]", long_arg.c_str(), 42);
    EXPECT_EQ(out, "x[" + long_arg + "|42]");
    util::appendf(out, "%s", "");
    EXPECT_EQ(out.size(), 1u + 1000u + 5u);
}

TEST(AsciiTest, JsonEscapeQuotesBackslashesAndControls) {
    EXPECT_EQ(util::json_escape("plain:7400"), "plain:7400");
    EXPECT_EQ(util::json_escape("a\"b\\c\nd\te\x01"), "a\\\"b\\\\c\\nd\\te\\u0001");
}

TEST(AsciiTest, CdfPlotMentionsLegend) {
    Ecdf cdf({1.0, 5.0, 25.0});
    const std::string plot = render_cdf_plot({{"real", cdf}});
    EXPECT_NE(plot.find("real"), std::string::npos);
}

TEST(LatencyHistogramTest, EmptyIsAllZero) {
    LatencyHistogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.mean(), 0.0);
    EXPECT_EQ(h.max(), 0.0);
    EXPECT_EQ(h.quantile(0.5), 0.0);
}

TEST(LatencyHistogramTest, QuantilesWithinGrowthError) {
    // Uniform grid over [1ms, 1s): the bucketed quantile must sit within one
    // growth factor of the exact sample quantile.
    LatencyHistogram h;
    std::vector<double> xs;
    for (int i = 0; i < 1000; ++i) {
        const double x = 1e-3 + (1.0 - 1e-3) * i / 999.0;
        xs.push_back(x);
        h.record(x);
    }
    EXPECT_EQ(h.count(), 1000u);
    for (double q : {0.5, 0.95, 0.99}) {
        const double exact = quantile(xs, q);
        const double approx = h.quantile(q);
        // Upper-edge convention with growth 1.05; allow one bucket of slack
        // for rank discretization between the two quantile definitions.
        EXPECT_GE(approx, exact * 0.94) << q;
        EXPECT_LE(approx, exact * 1.12) << q;
    }
    const auto p = h.percentiles();
    EXPECT_EQ(p.p50, h.quantile(0.50));
    EXPECT_EQ(p.p95, h.quantile(0.95));
    EXPECT_EQ(p.p99, h.quantile(0.99));
    EXPECT_LE(p.p50, p.p95);
    EXPECT_LE(p.p95, p.p99);
}

TEST(LatencyHistogramTest, MeanMaxAndNegativeClamp) {
    LatencyHistogram h;
    h.record(0.010);
    h.record(0.030);
    h.record(-1.0);  // clamped to 0, lands in the underflow bucket
    EXPECT_EQ(h.count(), 3u);
    EXPECT_NEAR(h.total(), 0.040, 1e-12);
    EXPECT_NEAR(h.mean(), 0.040 / 3.0, 1e-12);
    EXPECT_NEAR(h.max(), 0.030, 1e-12);
    // The clamped negative sits in the underflow bucket, whose upper edge is
    // min_value — the lowest quantile reports that edge.
    EXPECT_NEAR(h.quantile(0.0), 1e-6, 1e-15);
}

TEST(LatencyHistogramTest, OverflowBucketReportsExactMax) {
    LatencyHistogram h(1e-6, 1.05, 16);  // tiny range: top edge ~ 2.1e-6
    h.record(123.0);
    EXPECT_NEAR(h.quantile(0.99), 123.0, 1e-9);
    EXPECT_NEAR(h.max(), 123.0, 1e-9);
}

TEST(LatencyHistogramTest, MergeMatchesCombinedRecording) {
    LatencyHistogram a, b, both;
    Rng rng(5);
    for (int i = 0; i < 500; ++i) {
        const double x = rng.exponential(0.05);
        (i % 2 == 0 ? a : b).record(x);
        both.record(x);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), both.count());
    EXPECT_NEAR(a.total(), both.total(), 1e-9);
    EXPECT_EQ(a.quantile(0.5), both.quantile(0.5));
    EXPECT_EQ(a.quantile(0.99), both.quantile(0.99));
    EXPECT_EQ(a.max(), both.max());

    LatencyHistogram other_geometry(1e-3, 1.1, 100);
    EXPECT_THROW(a.merge(other_geometry), std::invalid_argument);
}

TEST(CliTest, ParsesArgsWithFallback) {
    const char* argv[] = {"prog", "--ues=500", "--full"};
    Options opt(3, argv);
    EXPECT_EQ(opt.get_int("ues", 10), 500);
    EXPECT_TRUE(opt.get_flag("full"));
    EXPECT_EQ(opt.get_int("absent", 7), 7);
    EXPECT_EQ(opt.get("name", "x"), "x");
}

// CPT_SIMD resolution, as a pure function of the env value and the
// detected tier, so every branch runs on every host.
TEST(SimdTierEnvTest, NamedTiersSelectThemselvesWithoutWarning) {
    const SimdTierChoice scalar = choose_simd_tier("scalar", SimdTier::kAvx2);
    EXPECT_EQ(scalar.tier, SimdTier::kScalar);
    EXPECT_TRUE(scalar.warning.empty());
    const SimdTierChoice avx2 = choose_simd_tier("avx2", SimdTier::kAvx2);
    EXPECT_EQ(avx2.tier, SimdTier::kAvx2);
    EXPECT_TRUE(avx2.warning.empty());
    for (SimdTier detected : {SimdTier::kScalar, SimdTier::kAvx2}) {
        const SimdTierChoice unset = choose_simd_tier("", detected);
        EXPECT_EQ(unset.tier, detected);
        EXPECT_TRUE(unset.warning.empty());
    }
}

TEST(SimdTierEnvTest, RetiredSse2ResolvesToScalarWithWarning) {
    for (SimdTier detected : {SimdTier::kScalar, SimdTier::kAvx2}) {
        const SimdTierChoice c = choose_simd_tier("sse2", detected);
        EXPECT_EQ(c.tier, SimdTier::kScalar);
        EXPECT_NE(c.warning.find("sse2"), std::string::npos) << c.warning;
    }
}

TEST(SimdTierEnvTest, UnknownValueResolvesToDetectedWithWarning) {
    for (SimdTier detected : {SimdTier::kScalar, SimdTier::kAvx2}) {
        const SimdTierChoice c = choose_simd_tier("avx512", detected);
        EXPECT_EQ(c.tier, detected);
        EXPECT_NE(c.warning.find("not recognized"), std::string::npos) << c.warning;
    }
}

TEST(SimdTierEnvTest, Avx2ClampsToScalarWhenOnlyScalarIsDetected) {
    const SimdTierChoice c = choose_simd_tier("avx2", SimdTier::kScalar);
    EXPECT_EQ(c.tier, SimdTier::kScalar);
    EXPECT_NE(c.warning.find("clamping to scalar"), std::string::npos) << c.warning;
}

TEST(SimdTierEnvTest, ScopedTierRestoresThePreviousTier) {
    const SimdTier before = active_simd_tier();
    for (SimdTier tier : available_simd_tiers()) {
        {
            const ScopedSimdTier guard(tier);
            EXPECT_EQ(active_simd_tier(), tier);
        }
        EXPECT_EQ(active_simd_tier(), before);
    }
}

}  // namespace
}  // namespace cpt::util
