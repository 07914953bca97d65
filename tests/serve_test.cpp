// Tests for the cpt-serve subsystem: the SlotBatch continuous-batching
// scheduler core (including the determinism pin against generate_batch — the
// contract that admission timing cannot perturb stream content), the wire
// protocol, and the Server/TcpServer end-to-end paths.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <limits>
#include <map>
#include <set>
#include <thread>

#include "core/model_hub.hpp"
#include "core/sampler.hpp"
#include "serve/client.hpp"
#include "serve/event_loop.hpp"
#include "serve/net.hpp"
#include "serve/server.hpp"
#include "trace/synthetic.hpp"

namespace cpt {
namespace {

core::CptGptConfig tiny_config() {
    core::CptGptConfig cfg;
    cfg.d_model = 16;
    cfg.heads = 2;
    cfg.mlp_hidden = 32;
    cfg.blocks = 1;
    cfg.max_seq_len = 32;
    cfg.head_hidden = 16;
    return cfg;
}

// generate_batch returns streams in completion order; re-sort by ue_id
// (which encodes the serial index) for stable comparison.
std::vector<trace::Stream> sorted_by_ue(std::vector<trace::Stream> streams) {
    std::sort(streams.begin(), streams.end(),
              [](const trace::Stream& a, const trace::Stream& b) { return a.ue_id < b.ue_id; });
    return streams;
}

void expect_streams_identical(const trace::Stream& a, const trace::Stream& b) {
    EXPECT_EQ(a.ue_id, b.ue_id);
    EXPECT_EQ(a.device, b.device);
    EXPECT_EQ(a.hour_of_day, b.hour_of_day);
    ASSERT_EQ(a.events.size(), b.events.size()) << a.ue_id;
    for (std::size_t i = 0; i < a.events.size(); ++i) {
        // Byte-identical, not approximately equal: the determinism contract.
        EXPECT_EQ(a.events[i].timestamp, b.events[i].timestamp) << a.ue_id << " event " << i;
        EXPECT_EQ(a.events[i].type, b.events[i].type) << a.ue_id << " event " << i;
    }
}

// Shared tiny released model: built once, published into a temp hub.
struct ServeFixture : ::testing::Test {
    static void SetUpTestSuite() {
        // Per-process hub: ctest runs this binary's cases as separate
        // concurrent processes, each with its own SetUpTestSuite.
        dir = (std::filesystem::temp_directory_path() /
               ("cpt_serve_test_hub_" + std::to_string(::getpid())))
                  .string();
        std::filesystem::remove_all(dir);
        trace::SyntheticWorldConfig w;
        w.population = {40, 0, 0};
        const auto data = trace::SyntheticWorldGenerator(w).generate();
        const auto tok = core::Tokenizer::fit(data);
        util::Rng rng(21);
        const core::CptGpt model(tok, tiny_config(), rng);
        core::ModelHub hub(dir);
        hub.publish(model, tok, data.initial_event_distribution(), trace::DeviceType::kPhone, 9);
    }
    static void TearDownTestSuite() { std::filesystem::remove_all(dir); }

    // A sampler over the *released* package (same floats the server decodes
    // with), for reference generate_batch runs.
    static core::CptGpt::Package load_package() {
        core::ModelHub hub(dir);
        return hub.load(trace::DeviceType::kPhone, 9, tiny_config());
    }
    static core::SamplerConfig slice_sampler_config(std::size_t batch) {
        core::SamplerConfig sc;
        sc.batch = batch;
        sc.device = trace::DeviceType::kPhone;
        sc.hour_of_day = 9;
        return sc;
    }

    static std::string dir;
};
std::string ServeFixture::dir;

// ---- SlotBatch scheduler core ----------------------------------------------

TEST_F(ServeFixture, SlotBatchMatchesGenerateBatchByteForByte) {
    const auto pkg = load_package();
    const core::Sampler sampler(*pkg.model, pkg.tokenizer, pkg.initial_event_dist,
                                slice_sampler_config(8));

    constexpr std::size_t kStreams = 8;
    std::vector<util::Rng> rngs;
    util::Rng root(42);
    for (std::size_t i = 0; i < kStreams; ++i) rngs.push_back(root.fork(i));
    auto rngs_copy = rngs;
    const auto want = sorted_by_ue(sampler.generate_batch(std::span(rngs_copy), "pin", 0));
    ASSERT_EQ(want.size(), kStreams);

    auto batch = sampler.make_slot_batch(kStreams);
    char id[64];
    for (std::size_t i = 0; i < kStreams; ++i) {
        std::snprintf(id, sizeof(id), "pin-%06zu", i);
        batch.admit(rngs[i], id, i);
    }
    std::vector<core::Sampler::SlotBatch::Finished> finished;
    while (batch.live() > 0) batch.step(finished);

    ASSERT_EQ(finished.size(), kStreams);
    std::map<std::uint64_t, const trace::Stream*> by_ticket;
    for (const auto& f : finished) {
        EXPECT_FALSE(f.evicted);
        by_ticket[f.ticket] = &f.stream;
    }
    for (std::size_t i = 0; i < kStreams; ++i) {
        ASSERT_TRUE(by_ticket.count(i));
        expect_streams_identical(*by_ticket[i], want[i]);
    }
}

TEST_F(ServeFixture, AdmissionTimingDoesNotPerturbStreamContent) {
    const auto pkg = load_package();
    const core::Sampler sampler(*pkg.model, pkg.tokenizer, pkg.initial_event_dist,
                                slice_sampler_config(4));

    // A common per-stream length cap, so the solo and mid-admitted decodes
    // share the same finish rule (and the cap fits the remaining context at
    // every admission point below).
    core::Sampler::SlotBatch::AdmitParams params;
    params.max_len = 16;

    // Reference: each stream decoded alone, from context position 0.
    util::Rng root(7);
    std::vector<util::Rng> rngs;
    for (std::size_t i = 0; i < 4; ++i) rngs.push_back(root.fork(i));
    std::vector<trace::Stream> alone;
    for (std::size_t i = 0; i < 4; ++i) {
        auto solo = sampler.make_slot_batch(1);
        solo.admit(rngs[i], "ue-" + std::to_string(i), i, params);
        std::vector<core::Sampler::SlotBatch::Finished> fin;
        while (solo.live() > 0) solo.step(fin);
        ASSERT_EQ(fin.size(), 1u);
        alone.push_back(std::move(fin[0].stream));
    }

    // Same four streams, but two join mid-decode (slot refill at a step
    // boundary): content must be identical despite the different admission
    // times and batch companions.
    auto batch = sampler.make_slot_batch(4);
    batch.admit(rngs[0], "ue-0", 0, params);
    batch.admit(rngs[1], "ue-1", 1, params);
    std::vector<core::Sampler::SlotBatch::Finished> fin;
    batch.step(fin);
    batch.step(fin);
    ASSERT_GE(batch.admissible_len(), params.max_len);
    batch.admit(rngs[2], "ue-2", 2, params);
    batch.step(fin);
    ASSERT_GE(batch.admissible_len(), params.max_len);
    batch.admit(rngs[3], "ue-3", 3, params);
    while (batch.live() > 0) batch.step(fin);

    std::map<std::uint64_t, const trace::Stream*> by_ticket;
    for (const auto& f : fin) by_ticket[f.ticket] = &f.stream;
    ASSERT_EQ(by_ticket.size(), 4u);
    for (std::size_t i = 0; i < 4; ++i) {
        expect_streams_identical(*by_ticket[i], alone[i]);
    }
}

TEST_F(ServeFixture, EvictReturnsPartialStreamsMarkedEvicted) {
    const auto pkg = load_package();
    const core::Sampler sampler(*pkg.model, pkg.tokenizer, pkg.initial_event_dist,
                                slice_sampler_config(2));
    auto batch = sampler.make_slot_batch(2);
    util::Rng root(3);
    batch.admit(root.fork(0), "a", 100);
    batch.admit(root.fork(1), "b", 200);
    std::vector<core::Sampler::SlotBatch::Finished> fin;
    batch.step(fin);

    // Stream 100 may have finished on its own in step 1; otherwise eviction
    // must hand back its partial stream flagged as evicted.
    const bool done_naturally = std::any_of(fin.begin(), fin.end(),
                                            [](const auto& f) { return f.ticket == 100; });
    std::vector<core::Sampler::SlotBatch::Finished> evicted;
    const std::size_t n = batch.evict([](std::uint64_t t) { return t == 100; }, evicted);
    EXPECT_EQ(n, done_naturally ? 0u : 1u);
    if (!done_naturally) {
        ASSERT_EQ(evicted.size(), 1u);
        EXPECT_TRUE(evicted[0].evicted);
        EXPECT_EQ(evicted[0].ticket, 100u);
        EXPECT_GE(evicted[0].stream.events.size(), 1u);
    }
    const std::size_t live = batch.live();
    std::vector<core::Sampler::SlotBatch::Finished> rest;
    EXPECT_EQ(batch.evict([](std::uint64_t) { return true; }, rest), live);
    EXPECT_EQ(batch.live(), 0u);
}

TEST_F(ServeFixture, AdmissibleLenIsInvariantUnderOccupancy) {
    // Decoder rows own independent per-row KV contexts, so a fresh slot can
    // always host a full-length stream no matter how far the current
    // residents have decoded: admissible_len() is an invariant, equal to the
    // sampler's max_stream_len cap.
    const auto pkg = load_package();
    const core::Sampler sampler(*pkg.model, pkg.tokenizer, pkg.initial_event_dist,
                                slice_sampler_config(2));
    auto batch = sampler.make_slot_batch(2);
    const std::size_t full = batch.admissible_len();
    EXPECT_EQ(full, sampler.config().max_stream_len);
    EXPECT_GE(full, 2u);
    util::Rng root(5);
    batch.admit(root.fork(0), "a", 0);
    std::vector<core::Sampler::SlotBatch::Finished> fin;
    batch.step(fin);
    batch.step(fin);  // resident advances; a fresh slot is unaffected
    EXPECT_EQ(batch.admissible_len(), full);
    if (batch.live() > 0) {
        // A late joiner really can run to the full cap beside the resident.
        batch.admit(root.fork(1), "b", 1,
                    core::Sampler::SlotBatch::AdmitParams{.max_len = full,
                                                          .temperature = -1.0,
                                                          .top_p = -1.0});
        batch.step(fin);
    }
    std::vector<core::Sampler::SlotBatch::Finished> evicted;
    batch.evict([](std::uint64_t) { return true; }, evicted);
    EXPECT_EQ(batch.admissible_len(), full);
}

// ---- wire protocol ----------------------------------------------------------

TEST(ServeProtocolTest, GenerateRequestRoundTrip) {
    serve::GenerateRequest req;
    req.device = trace::DeviceType::kTablet;
    req.hour_of_day = 21;
    req.count = 17;
    req.seed = 0xdeadbeefULL;
    req.deterministic = true;
    req.temperature = 0.8f;
    req.top_p = 0.95f;
    req.max_stream_len = 64;
    req.deadline_ms = 1500;
    req.ue_prefix = "lt";
    const auto bytes = serve::encode_generate_request(req);
    EXPECT_EQ(serve::peek_type(bytes), serve::MsgType::kGenerateRequest);
    const auto back = serve::decode_generate_request(bytes);
    EXPECT_EQ(back.device, req.device);
    EXPECT_EQ(back.hour_of_day, req.hour_of_day);
    EXPECT_EQ(back.count, req.count);
    EXPECT_EQ(back.seed, req.seed);
    EXPECT_EQ(back.deterministic, req.deterministic);
    EXPECT_EQ(back.temperature, req.temperature);
    EXPECT_EQ(back.top_p, req.top_p);
    EXPECT_EQ(back.max_stream_len, req.max_stream_len);
    EXPECT_EQ(back.deadline_ms, req.deadline_ms);
    EXPECT_EQ(back.ue_prefix, req.ue_prefix);
}

TEST(ServeProtocolTest, GenerateResponseRoundTripAndTruncationThrows) {
    serve::GenerateResponse resp;
    resp.status = serve::Status::kDeadline;
    resp.error = "deadline exceeded";
    trace::Stream s;
    s.ue_id = "pin-000001";
    s.device = trace::DeviceType::kPhone;
    s.hour_of_day = 9;
    s.events.push_back({0.0, 3});
    s.events.push_back({1.25, 7});
    resp.streams.push_back(s);
    const auto bytes = serve::encode_generate_response(resp);
    const auto back = serve::decode_generate_response(bytes);
    EXPECT_EQ(back.status, resp.status);
    EXPECT_EQ(back.error, resp.error);
    ASSERT_EQ(back.streams.size(), 1u);
    expect_streams_identical(back.streams[0], s);

    for (const std::size_t cut : {std::size_t{1}, bytes.size() / 2, bytes.size() - 1}) {
        const std::span<const std::uint8_t> trunc(bytes.data(), cut);
        EXPECT_THROW(serve::decode_generate_response(trunc), std::runtime_error) << cut;
    }
    EXPECT_THROW(serve::peek_type(std::span<const std::uint8_t>()), std::runtime_error);
}

// Inflated stream and event counts must be rejected against the bytes left
// before they size a reserve().
TEST(ServeProtocolTest, InflatedCountsAreRejectedBeforeAllocating) {
    serve::GenerateResponse resp;
    resp.error = "e";
    trace::Stream s;
    s.ue_id = "ue-1";
    s.events.push_back({0.0, 3});
    s.events.push_back({1.5, 7});
    resp.streams.push_back(s);
    const auto clean = serve::encode_generate_response(resp);
    // type, status, error (u16 length + bytes), stream count; then the stream:
    // id (u16 length + bytes), device, hour, event count.
    const std::size_t streams_at = 1 + 1 + 2 + resp.error.size();
    const std::size_t events_at = streams_at + 4 + 2 + s.ue_id.size() + 1 + 1;
    ASSERT_EQ(events_at + 4 + 9 * s.events.size(), clean.size());
    for (const auto& [offset, value] :
         {std::pair{streams_at, 0xFFFFFFFFu}, std::pair{streams_at, 0x10000000u},
          std::pair{events_at, 0xFFFFFFFFu}, std::pair{events_at, 3u}}) {
        auto bytes = clean;
        for (int i = 0; i < 4; ++i) bytes[offset + i] = static_cast<std::uint8_t>(value >> (8 * i));
        try {
            (void)serve::decode_generate_response(bytes);
            ADD_FAILURE() << "offset " << offset << " count " << value << " decoded";
        } catch (const std::runtime_error& e) {
            EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos) << e.what();
        }
    }
}

TEST(ServeProtocolTest, StatsRoundTrip) {
    const auto req = serve::encode_stats_request();
    EXPECT_EQ(serve::peek_type(req), serve::MsgType::kStatsRequest);
    const std::string json = "{\"queue_depth\": 0}";
    const auto resp = serve::encode_stats_response(json);
    EXPECT_EQ(serve::decode_stats_response(resp), json);
}

// ---- Server end-to-end -------------------------------------------------------

serve::ServeConfig base_config(const std::string& dir) {
    serve::ServeConfig cfg;
    cfg.hub_dir = dir;
    cfg.model = tiny_config();
    cfg.slot_capacity = 8;
    return cfg;
}

TEST_F(ServeFixture, DeterministicRequestReproducesGenerateBatch) {
    // Reference decode with the released package, exactly as the docs
    // prescribe: stream i <- Rng(seed).fork(i), ue_id "<prefix>-%06zu" % i.
    const auto pkg = load_package();
    const core::Sampler ref(*pkg.model, pkg.tokenizer, pkg.initial_event_dist,
                            slice_sampler_config(8));
    util::Rng root(42);
    std::vector<util::Rng> rngs;
    for (std::size_t i = 0; i < 5; ++i) rngs.push_back(root.fork(i));
    const auto want = sorted_by_ue(ref.generate_batch(std::span(rngs), "pin", 0));

    serve::Server server(base_config(dir));
    serve::GenerateRequest req;
    req.device = trace::DeviceType::kPhone;
    req.hour_of_day = 9;
    req.count = 5;
    req.seed = 42;
    req.deterministic = true;
    req.ue_prefix = "pin";
    const auto resp = server.generate(req);
    ASSERT_EQ(resp.status, serve::Status::kOk) << resp.error;
    ASSERT_EQ(resp.streams.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        expect_streams_identical(resp.streams[i], want[i]);
    }

    // Stats reflect the work.
    const std::string stats = server.stats_json();
    EXPECT_NE(stats.find("\"streams\": 5"), std::string::npos) << stats;
    EXPECT_NE(stats.find("\"p99\""), std::string::npos) << stats;
    EXPECT_NE(stats.find("\"completed\": 1"), std::string::npos) << stats;
    // perfbench parses decode_ms_per_step; no speculation stats remain.
    EXPECT_NE(stats.find("\"decode_ms_per_step\": "), std::string::npos) << stats;
    EXPECT_EQ(stats.find("\"precision\""), std::string::npos) << stats;
    EXPECT_EQ(stats.find("\"spec_"), std::string::npos) << stats;
    server.drain();
    EXPECT_EQ(server.generate(req).status, serve::Status::kShuttingDown);
}

// temperature = 0 in a request means greedy decoding, as it does in
// SamplerConfig; only negative values select the slice default.
TEST_F(ServeFixture, TemperatureZeroRequestDecodesGreedily) {
    const auto pkg = load_package();
    auto greedy_cfg = slice_sampler_config(8);
    greedy_cfg.temperature = 0.0;
    const core::Sampler ref(*pkg.model, pkg.tokenizer, pkg.initial_event_dist, greedy_cfg);
    util::Rng root(43);
    std::vector<util::Rng> rngs;
    for (std::size_t i = 0; i < 6; ++i) rngs.push_back(root.fork(i));
    const auto want = sorted_by_ue(ref.generate_batch(std::span(rngs), "greedy", 0));

    serve::Server server(base_config(dir));
    serve::GenerateRequest req;
    req.device = trace::DeviceType::kPhone;
    req.hour_of_day = 9;
    req.count = 6;
    req.seed = 43;
    req.deterministic = true;
    req.temperature = 0.0f;
    req.ue_prefix = "greedy";
    const auto resp = server.generate(req);
    ASSERT_EQ(resp.status, serve::Status::kOk) << resp.error;
    ASSERT_EQ(resp.streams.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        expect_streams_identical(resp.streams[i], want[i]);
    }
}

TEST_F(ServeFixture, MissingSliceReportsSliceAndHubDirectory) {
    serve::Server server(base_config(dir));
    serve::GenerateRequest req;
    req.device = trace::DeviceType::kTablet;
    req.hour_of_day = 3;
    const auto resp = server.generate(req);
    EXPECT_EQ(resp.status, serve::Status::kNoModel);
    EXPECT_NE(resp.error.find("tablet"), std::string::npos) << resp.error;
    EXPECT_NE(resp.error.find(dir), std::string::npos) << resp.error;
}

// ServeConfig::nearest_hour_fallback: a hub holding only phone/h23 serves a
// request for hour 1 (two hours away across midnight) from the h23 release
// and labels its streams hour 23; without the flag the request has no model.
TEST(ServeNearestHourTest, FallbackServesTheNearestPublishedHour) {
    const std::string dir = (std::filesystem::temp_directory_path() /
                             ("cpt_serve_nearest_hub_" + std::to_string(::getpid())))
                                .string();
    std::filesystem::remove_all(dir);
    {
        trace::SyntheticWorldConfig w;
        w.population = {30, 0, 0};
        const auto data = trace::SyntheticWorldGenerator(w).generate();
        const auto tok = core::Tokenizer::fit(data);
        util::Rng rng(23);
        const core::CptGpt model(tok, tiny_config(), rng);
        core::ModelHub hub(dir);
        hub.publish(model, tok, data.initial_event_distribution(), trace::DeviceType::kPhone, 23);
    }
    serve::GenerateRequest req;
    req.device = trace::DeviceType::kPhone;
    req.hour_of_day = 1;
    req.count = 3;
    req.seed = 5;
    req.deterministic = true;

    auto cfg = base_config(dir);
    cfg.nearest_hour_fallback = true;
    {
        serve::Server server(cfg);
        const auto resp = server.generate(req);
        ASSERT_EQ(resp.status, serve::Status::kOk) << resp.error;
        ASSERT_EQ(resp.streams.size(), 3u);
        for (const auto& s : resp.streams) EXPECT_EQ(s.hour_of_day, 23) << s.ue_id;
    }
    cfg.nearest_hour_fallback = false;
    {
        serve::Server server(cfg);
        EXPECT_EQ(server.generate(req).status, serve::Status::kNoModel);
    }
    std::filesystem::remove_all(dir);
}

TEST_F(ServeFixture, BadRequestsAreRejectedUpFront) {
    serve::Server server(base_config(dir));
    serve::GenerateRequest req;
    req.device = trace::DeviceType::kPhone;
    req.hour_of_day = 9;
    req.count = 0;
    EXPECT_EQ(server.generate(req).status, serve::Status::kBadRequest);
    req.count = 1;
    req.hour_of_day = 24;
    EXPECT_EQ(server.generate(req).status, serve::Status::kBadRequest);
    req.hour_of_day = 9;
    req.top_p = 1.5f;
    EXPECT_EQ(server.generate(req).status, serve::Status::kBadRequest);
    // top_p must be in (0, 1]; only negative values mean "slice default".
    req.top_p = 0.0f;
    EXPECT_EQ(server.generate(req).status, serve::Status::kBadRequest);
    // NaN fails every comparison, so it must not pass as "slice default".
    req.top_p = std::numeric_limits<float>::quiet_NaN();
    EXPECT_EQ(server.generate(req).status, serve::Status::kBadRequest);
    req.top_p = serve::GenerateRequest{}.top_p;
    req.temperature = std::numeric_limits<float>::quiet_NaN();
    EXPECT_EQ(server.generate(req).status, serve::Status::kBadRequest);
    // +inf would sample uniformly; -inf is negative, so the slice default.
    req.temperature = std::numeric_limits<float>::infinity();
    EXPECT_EQ(server.generate(req).status, serve::Status::kBadRequest);
    req.temperature = -std::numeric_limits<float>::infinity();
    req.max_stream_len = 4;
    EXPECT_EQ(server.generate(req).status, serve::Status::kOk);
    req.max_stream_len = 0;
    req.temperature = serve::GenerateRequest{}.temperature;
    // A device byte past the enum is malformed, not an unpublished slice.
    req.device = static_cast<trace::DeviceType>(trace::kNumDeviceTypes);
    const auto bad_device = server.generate(req);
    EXPECT_EQ(bad_device.status, serve::Status::kBadRequest);
    EXPECT_NE(bad_device.error.find("device"), std::string::npos) << bad_device.error;
    req.device = trace::DeviceType::kPhone;
    // Below the two-event minimum: rejected here, not thrown on the engine
    // thread (which would terminate the process).
    req.max_stream_len = 1;
    EXPECT_EQ(server.generate(req).status, serve::Status::kBadRequest);
    req.max_stream_len = 4;
    // A prefix at the cap is served; one byte over is malformed.
    req.ue_prefix = std::string(serve::kMaxUePrefixBytes, 'u');
    EXPECT_EQ(server.generate(req).status, serve::Status::kOk);
    req.ue_prefix.push_back('u');
    const auto long_prefix = server.generate(req);
    EXPECT_EQ(long_prefix.status, serve::Status::kBadRequest);
    EXPECT_NE(long_prefix.error.find("ue_prefix"), std::string::npos) << long_prefix.error;
}

// A UE id is never cut short: with a prefix longer than any fixed id buffer,
// every stream of a request still gets its own id, ending in its serial.
TEST_F(ServeFixture, LongUePrefixKeepsIdsDistinct) {
    serve::Server server(base_config(dir));
    serve::GenerateRequest req;
    req.device = trace::DeviceType::kPhone;
    req.hour_of_day = 9;
    req.count = 12;
    req.max_stream_len = 4;
    req.ue_prefix = std::string(100, 'u');
    const auto resp = server.generate(req);
    ASSERT_EQ(resp.status, serve::Status::kOk) << resp.error;
    ASSERT_EQ(resp.streams.size(), req.count);
    std::set<std::string> ids;
    for (std::size_t i = 0; i < resp.streams.size(); ++i) {
        const std::string& id = resp.streams[i].ue_id;
        const std::string tail = trace::ue_id("", i);  // "-00000i"
        ASSERT_GE(id.size(), tail.size());
        EXPECT_EQ(id.compare(0, 100, req.ue_prefix), 0) << id;
        EXPECT_EQ(id.substr(id.size() - tail.size()), tail) << id;
        ids.insert(id);
    }
    EXPECT_EQ(ids.size(), req.count);
}

TEST_F(ServeFixture, DeadlineEvictsAndReturnsCompletedPrefix) {
    auto cfg = base_config(dir);
    cfg.slot_capacity = 4;
    serve::Server server(cfg);
    serve::GenerateRequest req;
    req.device = trace::DeviceType::kPhone;
    req.hour_of_day = 9;
    req.count = 100000;  // far more than 1ms of decode
    req.seed = 9;
    req.deadline_ms = 1;
    const auto resp = server.generate(req);
    EXPECT_EQ(resp.status, serve::Status::kDeadline) << resp.error;
    EXPECT_LT(resp.streams.size(), req.count);
    const std::string stats = server.stats_json();
    EXPECT_NE(stats.find("\"timed_out\": 1"), std::string::npos) << stats;
}

TEST_F(ServeFixture, QueueFullAppliesBackpressure) {
    auto cfg = base_config(dir);
    cfg.queue_capacity = 1;
    cfg.slot_capacity = 2;
    serve::Server server(cfg);
    serve::GenerateRequest big;
    big.device = trace::DeviceType::kPhone;
    big.hour_of_day = 9;
    // Evicted long before 10^6 tiny-model streams finish: one avx2 engine
    // decodes 50000 of them in under the 100 ms the probe below waits.
    big.count = 1000000;
    big.deadline_ms = 500;

    std::thread first([&] {
        const auto resp = server.generate(big);
        EXPECT_NE(resp.status, serve::Status::kQueueFull);
    });
    // Give the big request time to occupy the single queue slot, then expect
    // backpressure until its deadline clears it out.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    serve::GenerateRequest small = big;
    small.count = 1;
    serve::GenerateResponse resp;
    for (int i = 0; i < 300; ++i) {
        resp = server.generate(small);
        if (resp.status == serve::Status::kQueueFull) break;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_EQ(resp.status, serve::Status::kQueueFull);
    first.join();
    server.drain();
}

TEST_F(ServeFixture, TcpTransportMatchesInProcess) {
    serve::Server server(base_config(dir));
    serve::TcpServer tcp(server, "127.0.0.1", 0);
    ASSERT_GT(tcp.port(), 0);
    std::thread accept_thread([&] { tcp.serve_forever(); });

    serve::GenerateRequest req;
    req.device = trace::DeviceType::kPhone;
    req.hour_of_day = 9;
    req.count = 3;
    req.seed = 1234;
    req.deterministic = true;
    req.ue_prefix = "tcp";

    const auto in_process = server.generate(req);
    ASSERT_EQ(in_process.status, serve::Status::kOk) << in_process.error;
    {
        serve::TcpClient client("127.0.0.1", tcp.port());
        const auto over_tcp = client.generate(req);
        ASSERT_EQ(over_tcp.status, serve::Status::kOk) << over_tcp.error;
        ASSERT_EQ(over_tcp.streams.size(), in_process.streams.size());
        for (std::size_t i = 0; i < over_tcp.streams.size(); ++i) {
            expect_streams_identical(over_tcp.streams[i], in_process.streams[i]);
        }
        const std::string stats = client.stats_json();
        EXPECT_NE(stats.find("latency_seconds"), std::string::npos) << stats;
    }
    tcp.stop();
    accept_thread.join();
    server.drain();
}

// A prefix near the wire's 0xffff-byte string limit would give ids no
// response can encode; the server answers it with an error frame and keeps
// serving the connection.
TEST_F(ServeFixture, TcpOversizedUePrefixGetsErrorReply) {
    serve::Server server(base_config(dir));
    serve::TcpServer tcp(server, "127.0.0.1", 0);
    ASSERT_GT(tcp.port(), 0);
    std::thread accept_thread([&] { tcp.serve_forever(); });

    serve::GenerateRequest req;
    req.device = trace::DeviceType::kPhone;
    req.hour_of_day = 9;
    req.count = 2;
    req.max_stream_len = 4;
    req.ue_prefix = std::string(0xffff - 4, 'u');
    {
        serve::TcpClient client("127.0.0.1", tcp.port());
        const auto rejected = client.generate(req);
        EXPECT_EQ(rejected.status, serve::Status::kBadRequest) << rejected.error;
        req.ue_prefix = "tcp";
        const auto served = client.generate(req);
        ASSERT_EQ(served.status, serve::Status::kOk) << served.error;
        EXPECT_EQ(served.streams.size(), req.count);
    }
    tcp.stop();
    accept_thread.join();
    server.drain();
}

TEST(TcpClientTest, BadHostThrowsTypedErrorWithoutLeakingFds) {
    const auto count_fds = [] {
        std::size_t n = 0;
        for (const auto& entry : std::filesystem::directory_iterator("/proc/self/fd")) {
            (void)entry;
            ++n;
        }
        return n;
    };
    const std::size_t before = count_fds();
    // The router's health probe constructs a TcpClient every interval and
    // swallows the exception; a leak here exhausts the fd table in seconds.
    for (int i = 0; i < 32; ++i) {
        try {
            serve::TcpClient client("not-an-ip", 1);
            FAIL() << "connecting to a hostname should have thrown";
        } catch (const serve::TransportError& e) {
            EXPECT_EQ(e.kind(), serve::TransportError::Kind::kConnectFailed);
            EXPECT_FALSE(e.response_started());
            EXPECT_NE(std::string(e.what()).find("not-an-ip"), std::string::npos);
        }
    }
    EXPECT_EQ(count_fds(), before);
}

TEST(TcpClientTest, GarbagePayloadIsNonRetriableProtocolError) {
    std::uint16_t port = 0;
    const int lfd = serve::net::listen_socket("127.0.0.1", 0, 4, &port);
    std::thread peer([lfd] {
        const int fd = ::accept(lfd, nullptr, nullptr);
        if (fd < 0) return;
        std::uint8_t buf[4096];
        (void)::recv(fd, buf, sizeof(buf), 0);  // discard the request frame
        // Well-framed junk: length prefix 3, then a payload no decoder
        // accepts. The client must surface this as a typed protocol error
        // (response started, never retriable), not a bare runtime_error.
        const std::uint8_t junk[] = {3, 0, 0, 0, 0xEE, 0xBA, 0xAD};
        (void)::send(fd, junk, sizeof(junk), 0);
        ::close(fd);
    });
    try {
        serve::TcpClient client("127.0.0.1", port);
        serve::GenerateRequest req;
        req.device = trace::DeviceType::kPhone;
        req.hour_of_day = 9;
        req.count = 1;
        (void)client.generate(req);
        FAIL() << "junk payload should have thrown";
    } catch (const serve::TransportError& e) {
        EXPECT_EQ(e.kind(), serve::TransportError::Kind::kProtocol);
        EXPECT_TRUE(e.response_started());
    }
    peer.join();
    ::close(lfd);
}

}  // namespace
}  // namespace cpt
