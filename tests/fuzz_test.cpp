// Robustness fuzzing: random garbage into the parsers and random (possibly
// invalid) event sequences into the replay/metrics pipeline. Nothing here may
// crash; structured errors must surface as exceptions.
#include <gtest/gtest.h>

#include <sstream>

#include "lint/trace_lint.hpp"
#include "metrics/fidelity.hpp"
#include "trace/io.hpp"
#include "trace/ngram.hpp"
#include "util/rng.hpp"

namespace cpt {
namespace {

class FuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzTest, CsvParserNeverCrashesOnGarbage) {
    util::Rng rng(GetParam());
    static constexpr char kAlphabet[] =
        "abcdefghijklmnopqrstuvwxyz0123456789,.\n\t -_%$#@!\"'";
    for (int round = 0; round < 50; ++round) {
        std::string payload = "generation,ue_id,device,hour,timestamp,event\n";
        const std::size_t len = rng.uniform_index(400);
        for (std::size_t i = 0; i < len; ++i) {
            payload.push_back(kAlphabet[rng.uniform_index(sizeof(kAlphabet) - 1)]);
        }
        std::stringstream in(payload);
        try {
            const auto ds = trace::read_csv(in);
            // Parsed successfully: the result must be structurally sound.
            for (const auto& s : ds.streams) {
                double prev = -1e18;
                for (const auto& e : s.events) {
                    EXPECT_GE(e.timestamp, prev);
                    prev = e.timestamp;
                }
            }
        } catch (const std::invalid_argument&) {
            // expected for malformed payloads
        }
    }
}

TEST_P(FuzzTest, MetricsPipelineHandlesArbitraryEventSequences) {
    util::Rng rng(GetParam() + 100);
    trace::Dataset ds;
    const std::size_t streams = 1 + rng.uniform_index(20);
    for (std::size_t i = 0; i < streams; ++i) {
        trace::Stream s;
        s.ue_id = "fuzz" + std::to_string(i);
        double t = 0.0;
        const std::size_t len = rng.uniform_index(60);
        for (std::size_t k = 0; k < len; ++k) {
            t += rng.uniform(0.0, 30.0);
            s.events.push_back(
                {t, static_cast<cellular::EventId>(rng.uniform_index(cellular::lte::kNumEvents))});
        }
        ds.streams.push_back(std::move(s));
    }
    // Violations, sojourns, breakdowns, n-grams: must all be well defined for
    // arbitrary (including heavily violating or empty) streams.
    const auto v = lint::TraceLinter(ds.generation).lint(ds);
    EXPECT_LE(v.violating_events, v.counted_events);
    EXPECT_LE(v.violating_streams, v.total_streams);
    const auto s = metrics::collect_sojourns(ds);
    for (double x : s.connected) EXPECT_GE(x, 0.0);
    const auto report = metrics::evaluate_fidelity(ds, ds);
    EXPECT_DOUBLE_EQ(report.maxy_flow_length_all, 0.0);
    const trace::NgramIndex index(ds, 3);
    EXPECT_GE(trace::repeated_ngram_fraction(ds, index, 0.1), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzTest, ::testing::Values(1, 2, 3, 4, 5, 6));

}  // namespace
}  // namespace cpt
