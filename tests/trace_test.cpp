// Tests for the trace data model, CSV round trip, the synthetic world
// generator (statefulness, breakdown calibration, diurnal drift), and n-gram
// memorization matching.
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "cellular/state_machine.hpp"
#include "trace/io.hpp"
#include "trace/ngram.hpp"
#include "trace/stream.hpp"
#include "trace/synthetic.hpp"
#include "util/stats.hpp"

namespace cpt::trace {
namespace {

namespace lte = cellular::lte;

Stream make_stream(std::initializer_list<std::pair<double, cellular::EventId>> list) {
    Stream s;
    s.ue_id = "ue-test";
    for (auto& [t, e] : list) s.events.push_back({t, e});
    return s;
}

TEST(StreamTest, InterarrivalsStartAtZero) {
    const Stream s =
        make_stream({{0.0, lte::kSrvReq}, {4.0, lte::kS1ConnRel}, {10.0, lte::kSrvReq}});
    const auto ia = s.interarrivals();
    ASSERT_EQ(ia.size(), 3u);
    EXPECT_DOUBLE_EQ(ia[0], 0.0);
    EXPECT_DOUBLE_EQ(ia[1], 4.0);
    EXPECT_DOUBLE_EQ(ia[2], 6.0);
}

// ue_id gives printf's "%s-%06zu" bytes whenever those fit a buffer, and
// never truncates.
TEST(StreamTest, UeIdMatchesPrintfAndNeverTruncates) {
    char buf[64];
    for (const std::size_t serial : {std::size_t{0}, std::size_t{7}, std::size_t{123456},
                                     std::size_t{1234567}}) {
        std::snprintf(buf, sizeof(buf), "%s-%06zu", "serve", serial);
        EXPECT_EQ(trace::ue_id("serve", serial), buf);
    }
    EXPECT_EQ(trace::ue_id("", 42), "-000042");
    const std::string prefix(100, 'p');
    const std::string id = trace::ue_id(prefix, 3);
    EXPECT_EQ(id, prefix + "-000003");
}

TEST(DatasetTest, BreakdownAndFlowLengths) {
    Dataset ds;
    ds.streams.push_back(make_stream({{0.0, lte::kSrvReq}, {1.0, lte::kS1ConnRel}}));
    ds.streams.push_back(make_stream(
        {{0.0, lte::kSrvReq}, {1.0, lte::kHo}, {2.0, lte::kTau}, {3.0, lte::kS1ConnRel}}));
    EXPECT_EQ(ds.total_events(), 6u);
    const auto p = ds.event_type_breakdown();
    EXPECT_NEAR(p[lte::kSrvReq], 2.0 / 6.0, 1e-12);
    EXPECT_NEAR(p[lte::kS1ConnRel], 2.0 / 6.0, 1e-12);
    EXPECT_NEAR(p[lte::kHo], 1.0 / 6.0, 1e-12);
    const auto lens = ds.flow_lengths();
    EXPECT_EQ(lens, (std::vector<double>{2.0, 4.0}));
    const auto srv_lens = ds.flow_lengths(lte::kSrvReq);
    EXPECT_EQ(srv_lens, (std::vector<double>{1.0, 1.0}));
}

TEST(DatasetTest, InitialEventDistribution) {
    Dataset ds;
    ds.streams.push_back(make_stream({{0.0, lte::kSrvReq}, {1.0, lte::kS1ConnRel}}));
    ds.streams.push_back(make_stream({{0.0, lte::kSrvReq}, {1.0, lte::kS1ConnRel}}));
    ds.streams.push_back(make_stream({{0.0, lte::kAtch}, {1.0, lte::kS1ConnRel}}));
    const auto d = ds.initial_event_distribution();
    EXPECT_NEAR(d[lte::kSrvReq], 2.0 / 3.0, 1e-12);
    EXPECT_NEAR(d[lte::kAtch], 1.0 / 3.0, 1e-12);
}

TEST(DatasetTest, TruncatedDropsOutliers) {
    Dataset ds;
    ds.streams.push_back(make_stream({{0.0, lte::kSrvReq}}));  // too short
    ds.streams.push_back(make_stream({{0.0, lte::kSrvReq}, {1.0, lte::kS1ConnRel}}));
    Stream long_stream;
    for (int i = 0; i < 600; ++i) {
        long_stream.events.push_back(
            {static_cast<double>(i), i % 2 == 0 ? lte::kSrvReq : lte::kS1ConnRel});
    }
    ds.streams.push_back(long_stream);
    const auto t = ds.truncated(500);
    ASSERT_EQ(t.streams.size(), 1u);
    EXPECT_EQ(t.streams[0].length(), 2u);
}

TEST(IoTest, CsvRoundTrip) {
    SyntheticWorldConfig cfg;
    cfg.population = {5, 3, 2};
    cfg.seed = 99;
    const Dataset ds = SyntheticWorldGenerator(cfg).generate();
    ASSERT_FALSE(ds.streams.empty());
    std::stringstream buf;
    write_csv(buf, ds);
    const Dataset back = read_csv(buf);
    ASSERT_EQ(back.streams.size(), ds.streams.size());
    for (std::size_t i = 0; i < ds.streams.size(); ++i) {
        EXPECT_EQ(back.streams[i].ue_id, ds.streams[i].ue_id);
        EXPECT_EQ(back.streams[i].device, ds.streams[i].device);
        EXPECT_EQ(back.streams[i].hour_of_day, ds.streams[i].hour_of_day);
        ASSERT_EQ(back.streams[i].events.size(), ds.streams[i].events.size());
        for (std::size_t j = 0; j < ds.streams[i].events.size(); ++j) {
            EXPECT_EQ(back.streams[i].events[j].type, ds.streams[i].events[j].type);
            EXPECT_NEAR(back.streams[i].events[j].timestamp, ds.streams[i].events[j].timestamp,
                        1e-6);
        }
    }
}

TEST(IoTest, FiveGCsvRoundTrip) {
    trace::SyntheticWorldConfig cfg;
    cfg.generation = cellular::Generation::kNr5G;
    cfg.population = {8, 3, 2};
    cfg.seed = 123;
    const Dataset ds = SyntheticWorldGenerator(cfg).generate();
    std::stringstream buf;
    write_csv(buf, ds);
    EXPECT_NE(buf.str().find("5g,"), std::string::npos);
    EXPECT_NE(buf.str().find("AN_REL"), std::string::npos);
    const Dataset back = read_csv(buf);
    EXPECT_EQ(back.generation, cellular::Generation::kNr5G);
    EXPECT_EQ(back.total_events(), ds.total_events());
}

TEST(DatasetTest, FilterHourSelectsSlice) {
    Dataset ds;
    Stream a = make_stream({{0.0, lte::kSrvReq}, {1.0, lte::kS1ConnRel}});
    a.hour_of_day = 3;
    Stream b = make_stream({{0.0, lte::kSrvReq}, {1.0, lte::kS1ConnRel}});
    b.hour_of_day = 7;
    ds.streams = {a, b, a};
    EXPECT_EQ(ds.filter_hour(3).streams.size(), 2u);
    EXPECT_EQ(ds.filter_hour(7).streams.size(), 1u);
    EXPECT_TRUE(ds.filter_hour(12).streams.empty());
}

// Asserts read_csv rejects `csv` with a message containing every expected
// substring — the satellite contract: each malformed branch names the 1-based
// line and the offending field.
void expect_csv_rejected(const std::string& csv,
                         const std::vector<std::string>& expected_substrings) {
    std::stringstream in(csv);
    try {
        read_csv(in);
        FAIL() << "input must be rejected:\n" << csv;
    } catch (const std::invalid_argument& e) {
        const std::string what = e.what();
        for (const auto& sub : expected_substrings) {
            EXPECT_NE(what.find(sub), std::string::npos)
                << "message '" << what << "' lacks '" << sub << "'";
        }
    }
}

constexpr const char* kCsvHeader = "generation,ue_id,device,hour,timestamp,event\n";

TEST(IoTest, RejectsMalformedInputNamingLineAndField) {
    expect_csv_rejected("", {"empty input"});
    expect_csv_rejected("nope\n", {"line 1", "unexpected header"});
    expect_csv_rejected(std::string(kCsvHeader) + "4g,u1,phone,0,0.0\n",
                        {"line 2", "expected 6 columns"});
    expect_csv_rejected(std::string(kCsvHeader) + "6g,u1,phone,0,0.0,SRV_REQ\n",
                        {"line 2", "generation", "6g"});
    expect_csv_rejected(std::string(kCsvHeader) + "4g,,phone,0,0.0,SRV_REQ\n",
                        {"line 2", "empty ue_id"});
    expect_csv_rejected(std::string(kCsvHeader) + "4g,u1,toaster,0,0.0,SRV_REQ\n",
                        {"line 2", "device", "toaster"});
    expect_csv_rejected(std::string(kCsvHeader) + "4g,u1,phone,noon,0.0,SRV_REQ\n",
                        {"line 2", "hour", "noon"});
    expect_csv_rejected(std::string(kCsvHeader) + "4g,u1,phone,0,sometime,SRV_REQ\n",
                        {"line 2", "timestamp", "sometime"});
    expect_csv_rejected(std::string(kCsvHeader) + "4g,u1,phone,0,0.0,BOGUS\n",
                        {"line 2", "unknown event", "BOGUS"});
    expect_csv_rejected(std::string(kCsvHeader) +
                            "4g,u1,phone,0,5.0,SRV_REQ\n4g,u1,phone,0,1.0,S1_CONN_REL\n",
                        {"line 3", "decreasing timestamp", "u1"});
    expect_csv_rejected(std::string(kCsvHeader) +
                            "4g,u1,phone,0,0.0,SRV_REQ\n5g,u2,phone,0,0.0,SRV_REQ\n",
                        {"line 3", "mixed generations"});
    // The error on a later row reports that row's line, not the first.
    expect_csv_rejected(std::string(kCsvHeader) +
                            "4g,u1,phone,0,0.0,SRV_REQ\n4g,u1,phone,0,1.0,SRV_REQ\n"
                            "4g,u2,phone,0,0.0,BOGUS\n",
                        {"line 4", "unknown event"});
}

// ---- Synthetic world ----------------------------------------------------------

class SyntheticWorldTest : public ::testing::Test {
protected:
    static Dataset generate(std::size_t phones, std::size_t cars, std::size_t tablets,
                            int hour = 10, std::uint64_t seed = 7) {
        SyntheticWorldConfig cfg;
        cfg.population = {phones, cars, tablets};
        cfg.hour_of_day = hour;
        cfg.seed = seed;
        return SyntheticWorldGenerator(cfg).generate();
    }
};

TEST_F(SyntheticWorldTest, ProducesZeroSemanticViolations) {
    const Dataset ds = generate(150, 60, 30);
    const auto& m = cellular::StateMachine::for_generation(cellular::Generation::kLte4G);
    cellular::StateMachineReplayer rep(m);
    for (const auto& s : ds.streams) {
        const auto r = rep.replay(s.events);
        EXPECT_EQ(r.violations, 0u) << "stream " << s.ue_id;
    }
}

TEST_F(SyntheticWorldTest, TimestampsMonotoneAndWithinWindow) {
    const Dataset ds = generate(100, 40, 20);
    for (const auto& s : ds.streams) {
        double prev = -1.0;
        for (const auto& e : s.events) {
            EXPECT_GE(e.timestamp, prev);
            prev = e.timestamp;
        }
        EXPECT_LE(s.events.back().timestamp, 3600.0);
        EXPECT_DOUBLE_EQ(s.events.front().timestamp, 0.0);
    }
}

TEST_F(SyntheticWorldTest, PhoneBreakdownNearPaperTargets) {
    const Dataset ds = generate(800, 0, 0);
    const auto p = ds.event_type_breakdown();
    // Paper Table 7 (real, phones): SRV_REQ 47.06%, S1_CONN_REL 48.25%,
    // HO 2.88%, TAU 1.59%, ATCH 0.12%, DTCH 0.11%. Match loosely — the shape
    // is what matters.
    EXPECT_NEAR(p[lte::kSrvReq], 0.47, 0.05);
    EXPECT_NEAR(p[lte::kS1ConnRel], 0.48, 0.05);
    EXPECT_LT(p[lte::kHo], 0.08);
    EXPECT_GT(p[lte::kHo], 0.005);
    EXPECT_LT(p[lte::kAtch], 0.02);
}

TEST_F(SyntheticWorldTest, CarsHaveMoreHandoversThanPhones) {
    const Dataset phones = generate(500, 0, 0);
    const Dataset cars = generate(0, 500, 0);
    const auto pp = phones.event_type_breakdown();
    const auto pc = cars.event_type_breakdown();
    EXPECT_GT(pc[lte::kHo], pp[lte::kHo] * 1.5);
    EXPECT_GT(pc[lte::kTau], pp[lte::kTau]);
}

TEST_F(SyntheticWorldTest, FlowLengthsAreDiverse) {
    const Dataset ds = generate(500, 0, 0);
    const auto lens = ds.flow_lengths();
    const auto s = util::summarize(lens);
    EXPECT_GT(s.max, 4.0 * s.mean) << "expect a heavy tail of long flows";
    EXPECT_GT(s.stddev, 0.3 * s.mean);
}

TEST_F(SyntheticWorldTest, PhoneConnectedSojournInPaperRange) {
    const Dataset ds = generate(400, 0, 0);
    const auto& m = cellular::StateMachine::for_generation(cellular::Generation::kLte4G);
    cellular::StateMachineReplayer rep(m);
    std::vector<double> means;
    for (const auto& s : ds.streams) {
        const auto r = rep.replay(s.events);
        if (r.sojourn_connected.empty()) continue;
        means.push_back(util::summarize(r.sojourn_connected).mean);
    }
    ASSERT_GT(means.size(), 100u);
    // Paper Fig. 2: the majority of per-UE mean CONNECTED sojourns in 5-50 s.
    std::size_t in_range = 0;
    for (double v : means) {
        if (v >= 5.0 && v <= 50.0) ++in_range;
    }
    EXPECT_GT(static_cast<double>(in_range) / means.size(), 0.5);
}

TEST_F(SyntheticWorldTest, DiurnalDriftChangesVolume) {
    // Peak-hour traffic should be denser than 4am traffic for phones.
    const Dataset busy = generate(300, 0, 0, /*hour=*/14, /*seed=*/5);
    const Dataset quiet = generate(300, 0, 0, /*hour=*/2, /*seed=*/5);
    const double busy_mean = util::summarize(busy.flow_lengths()).mean;
    const double quiet_mean = util::summarize(quiet.flow_lengths()).mean;
    EXPECT_GT(busy_mean, quiet_mean * 1.1);
}

TEST_F(SyntheticWorldTest, GenerateHoursProducesDistinctSlices) {
    SyntheticWorldConfig cfg;
    cfg.population = {50, 0, 0};
    cfg.hour_of_day = 22;
    const auto slices = SyntheticWorldGenerator(cfg).generate_hours(4);
    ASSERT_EQ(slices.size(), 4u);
    EXPECT_EQ(slices[0].streams.front().hour_of_day, 22);
    EXPECT_EQ(slices[2].streams.front().hour_of_day, 0);  // wraps midnight
    // Different slices should not be byte-identical.
    EXPECT_NE(slices[0].streams.front().events.size(), 0u);
}

TEST_F(SyntheticWorldTest, DeterministicForSameSeed) {
    const Dataset a = generate(30, 10, 5, 10, 1234);
    const Dataset b = generate(30, 10, 5, 10, 1234);
    ASSERT_EQ(a.streams.size(), b.streams.size());
    for (std::size_t i = 0; i < a.streams.size(); ++i) {
        ASSERT_EQ(a.streams[i].events.size(), b.streams[i].events.size());
        for (std::size_t j = 0; j < a.streams[i].events.size(); ++j) {
            EXPECT_EQ(a.streams[i].events[j].timestamp, b.streams[i].events[j].timestamp);
        }
    }
}

TEST_F(SyntheticWorldTest, FiveGWorldIsValidAndTauFree) {
    // §7 future work: the same generator covers 5G by swapping the domain
    // layer. Streams must satisfy the Fig. 1b machine and contain no TAU.
    trace::SyntheticWorldConfig cfg;
    cfg.generation = cellular::Generation::kNr5G;
    cfg.population = {120, 40, 20};
    cfg.seed = 77;
    const auto ds = trace::SyntheticWorldGenerator(cfg).generate();
    ASSERT_GT(ds.streams.size(), 100u);
    EXPECT_EQ(ds.generation, cellular::Generation::kNr5G);
    const auto& m = cellular::StateMachine::for_generation(cellular::Generation::kNr5G);
    cellular::StateMachineReplayer rep(m);
    for (const auto& s : ds.streams) {
        EXPECT_EQ(rep.replay(s.events).violations, 0u);
        for (const auto& e : s.events) EXPECT_LT(e.type, cellular::nr::kNumEvents);
    }
    // Breakdown mirrors 4G structure: SRV_REQ and AN_REL dominate.
    const auto p = ds.event_type_breakdown();
    EXPECT_GT(p[cellular::nr::kSrvReq], 0.35);
    EXPECT_GT(p[cellular::nr::kAnRel], 0.35);
}

TEST_F(SyntheticWorldTest, FiveGCarsStillHandoverMore) {
    trace::SyntheticWorldConfig cfg;
    cfg.generation = cellular::Generation::kNr5G;
    cfg.seed = 78;
    cfg.population = {300, 0, 0};
    const auto phones = trace::SyntheticWorldGenerator(cfg).generate();
    cfg.population = {0, 300, 0};
    const auto cars = trace::SyntheticWorldGenerator(cfg).generate();
    EXPECT_GT(cars.event_type_breakdown()[cellular::nr::kHo],
              phones.event_type_breakdown()[cellular::nr::kHo] * 1.5);
}

TEST(DiurnalFactorTest, PeaksAtConfiguredHour) {
    const auto& p = device_profile(DeviceType::kPhone);
    const double at_peak = diurnal_factor(p, p.diurnal_peak_hour);
    const double off_peak = diurnal_factor(p, p.diurnal_peak_hour + 12.0);
    EXPECT_GT(at_peak, off_peak);
    EXPECT_NEAR(at_peak, 1.0 + p.diurnal_amplitude, 1e-9);
}

// ---- N-grams --------------------------------------------------------------------

TEST(NgramTest, InterarrivalToleranceSemantics) {
    EXPECT_TRUE(interarrival_matches(10.0, 10.5, 0.1));
    EXPECT_FALSE(interarrival_matches(10.0, 12.0, 0.1));
    EXPECT_TRUE(interarrival_matches(0.0, 0.0, 0.1));
    EXPECT_FALSE(interarrival_matches(0.0, 1.0, 0.1));
    EXPECT_FALSE(interarrival_matches(1.0, 0.0, 0.1));
}

TEST(NgramTest, ExtractCountsWindows) {
    Dataset ds;
    ds.streams.push_back(make_stream(
        {{0.0, lte::kSrvReq}, {1.0, lte::kS1ConnRel}, {2.0, lte::kSrvReq}, {3.0, lte::kS1ConnRel}}));
    EXPECT_EQ(extract_ngrams(ds, 2).size(), 3u);
    EXPECT_EQ(extract_ngrams(ds, 4).size(), 1u);
    EXPECT_EQ(extract_ngrams(ds, 5).size(), 0u);
}

TEST(NgramTest, ExactCopyIsDetected) {
    Dataset train;
    train.streams.push_back(make_stream(
        {{0.0, lte::kSrvReq}, {7.0, lte::kS1ConnRel}, {19.0, lte::kSrvReq}}));
    const NgramIndex index(train, 2);
    // The generated dataset IS the training dataset.
    EXPECT_DOUBLE_EQ(repeated_ngram_fraction(train, index, 0.1), 1.0);
}

TEST(NgramTest, EventMismatchIsNotAMatch) {
    Dataset train;
    train.streams.push_back(make_stream({{0.0, lte::kSrvReq}, {7.0, lte::kS1ConnRel}}));
    Dataset gen;
    gen.streams.push_back(make_stream({{0.0, lte::kSrvReq}, {7.0, lte::kHo}}));
    const NgramIndex index(train, 2);
    EXPECT_DOUBLE_EQ(repeated_ngram_fraction(gen, index, 0.5), 0.0);
}

TEST(NgramTest, ToleranceWidensMatches) {
    Dataset train;
    train.streams.push_back(make_stream({{0.0, lte::kSrvReq}, {10.0, lte::kS1ConnRel}}));
    Dataset gen;
    gen.streams.push_back(make_stream({{0.0, lte::kSrvReq}, {11.5, lte::kS1ConnRel}}));
    const NgramIndex index(train, 2);
    EXPECT_DOUBLE_EQ(repeated_ngram_fraction(gen, index, 0.10), 0.0);  // 15% off
    EXPECT_DOUBLE_EQ(repeated_ngram_fraction(gen, index, 0.20), 1.0);
}

}  // namespace
}  // namespace cpt::trace
