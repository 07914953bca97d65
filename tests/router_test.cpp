// Tests for the cpt-router sharding tier (DESIGN.md §15): the consistent
// hash ring's stability property (a membership change moves only the changed
// node's key ranges), the pure routing/spill decision, and — against live
// backends over TCP — failover that returns byte-identical streams to a
// single-backend run, plus probe-driven down/up transitions.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>

#include "core/model_hub.hpp"
#include "serve/event_loop.hpp"
#include "serve/router.hpp"
#include "serve/server.hpp"
#include "trace/synthetic.hpp"

namespace cpt {
namespace {

// ---- HashRing --------------------------------------------------------------

std::vector<std::string> make_nodes(std::size_t n) {
    std::vector<std::string> nodes;
    for (std::size_t i = 0; i < n; ++i) {
        nodes.push_back("10.0.0." + std::to_string(i + 1) + ":7400");
    }
    return nodes;
}

std::vector<std::string> make_keys(std::size_t n) {
    std::vector<std::string> keys;
    for (std::size_t i = 0; i < n; ++i) {
        keys.push_back("slice-" + std::to_string(i));
    }
    return keys;
}

TEST(HashRing, OwnerIsIndependentOfInsertionOrder) {
    const auto nodes = make_nodes(5);
    serve::HashRing forward(64);
    for (const auto& n : nodes) forward.add(n);
    serve::HashRing reverse(64);
    for (auto it = nodes.rbegin(); it != nodes.rend(); ++it) reverse.add(*it);
    for (const auto& key : make_keys(500)) {
        EXPECT_EQ(forward.owner(key), reverse.owner(key)) << key;
    }
}

TEST(HashRing, JoinMovesAtMostItsShareAndOnlyToTheJoiner) {
    constexpr std::size_t kKeys = 2000;
    constexpr std::size_t kNodes = 8;
    const auto keys = make_keys(kKeys);
    serve::HashRing ring(64);
    for (const auto& n : make_nodes(kNodes)) ring.add(n);

    std::map<std::string, std::string> before;
    for (const auto& key : keys) before[key] = ring.owner(key);

    const std::string joiner = "10.0.0.99:7400";
    ring.add(joiner);
    std::size_t moved = 0;
    for (const auto& key : keys) {
        const std::string after = ring.owner(key);
        if (after != before[key]) {
            ++moved;
            // Every moved key must land on the new node — nothing reshuffles
            // between the old nodes.
            EXPECT_EQ(after, joiner) << key;
        }
    }
    // Expected share is K/(n+1) ≈ 222; vnode placement is uneven, so allow
    // a generous factor, but well below what naive mod-n rehashing would
    // move (≈ K * n/(n+1) ≈ 1777).
    EXPECT_GT(moved, std::size_t{0});
    EXPECT_LE(moved, 3 * kKeys / (kNodes + 1));
}

TEST(HashRing, LeaveMovesOnlyTheLeaverKeys) {
    const auto keys = make_keys(2000);
    const auto nodes = make_nodes(8);
    serve::HashRing ring(64);
    for (const auto& n : nodes) ring.add(n);

    std::map<std::string, std::string> before;
    for (const auto& key : keys) before[key] = ring.owner(key);

    const std::string leaver = nodes[3];
    ring.remove(leaver);
    EXPECT_FALSE(ring.contains(leaver));
    for (const auto& key : keys) {
        const std::string after = ring.owner(key);
        if (before[key] == leaver) {
            EXPECT_NE(after, leaver) << key;
        } else {
            // Keys the leaver did not own keep their backend-resident engine.
            EXPECT_EQ(after, before[key]) << key;
        }
    }
}

TEST(HashRing, OwnersAreDistinctAndLedByTheOwner) {
    serve::HashRing ring(64);
    for (const auto& n : make_nodes(4)) ring.add(n);
    for (const auto& key : make_keys(100)) {
        const auto owners = ring.owners(key, 3);
        ASSERT_EQ(owners.size(), std::size_t{3}) << key;
        EXPECT_EQ(owners[0], ring.owner(key)) << key;
        EXPECT_NE(owners[0], owners[1]);
        EXPECT_NE(owners[1], owners[2]);
        EXPECT_NE(owners[0], owners[2]);
    }
}

// Slice keys differ only in their hour digits. Each of the two backends the
// whole-stack benchmark runs must own a fair share of the 24 hours, not none.
TEST(HashRing, SimilarKeysSpreadOverBackends) {
    serve::HashRing ring(64);
    ring.add("127.0.0.1:29311");
    ring.add("127.0.0.1:29312");
    std::map<std::string, std::size_t> owned;
    for (int h = 0; h < 24; ++h) ++owned[ring.owner("phone/h" + std::to_string(h))];
    EXPECT_GE(owned["127.0.0.1:29311"], std::size_t{6});
    EXPECT_GE(owned["127.0.0.1:29312"], std::size_t{6});
}

TEST(HashRing, EmptyRingHasNoOwner) {
    serve::HashRing ring(64);
    EXPECT_TRUE(ring.empty());
    EXPECT_EQ(ring.owner("slice"), "");
    ring.add("a:1");
    ring.remove("a:1");
    EXPECT_EQ(ring.owner("slice"), "");
}

// ---- plan_route ------------------------------------------------------------

TEST(PlanRoute, PrimaryWinsBelowSpillThreshold) {
    const std::vector<serve::RouteCandidate> c = {{true, 7}, {true, 0}};
    EXPECT_EQ(serve::plan_route(c, 8), std::size_t{0});
}

TEST(PlanRoute, HotPrimarySpillsToStrictlyLessLoaded) {
    const std::vector<serve::RouteCandidate> c = {{true, 8}, {true, 3}};
    EXPECT_EQ(serve::plan_route(c, 8), std::size_t{1});
}

TEST(PlanRoute, HotPrimaryKeepsEquallyLoadedAlternative) {
    // Spilling to an equally-loaded replica just doubles the hot set.
    const std::vector<serve::RouteCandidate> c = {{true, 8}, {true, 8}};
    EXPECT_EQ(serve::plan_route(c, 8), std::size_t{0});
}

TEST(PlanRoute, UnavailablePrimarySkipsToNextCandidate) {
    const std::vector<serve::RouteCandidate> c = {{false, 0}, {true, 5}};
    EXPECT_EQ(serve::plan_route(c, 8), std::size_t{1});
}

TEST(PlanRoute, AllUnavailableReturnsEnd) {
    const std::vector<serve::RouteCandidate> c = {{false, 0}, {false, 0}};
    EXPECT_EQ(serve::plan_route(c, 8), c.size());
}

// ---- config validation -----------------------------------------------------

TEST(RouterConfig, RejectsHostnamesAndBadPortsAtConstruction) {
    // TcpClient only dials IPv4 literals; a hostname must fail fast at
    // config time, not throw per-request inside a forwarder thread.
    for (const char* backend :
         {"localhost:7400", "127.0.0.1:notaport", "127.0.0.1:70000", "127.0.0.1:0",
          "127.0.0.1", ":7400", "127.0.0.1:"}) {
        serve::RouterConfig rc;
        rc.backends = {backend};
        EXPECT_THROW(serve::Router{rc}, std::runtime_error) << backend;
    }
}

// A backend name longer than any fixed formatting buffer reaches stats_json
// whole, and the document stays balanced JSON. Leading zeros pad the port of
// a refused loopback endpoint to 300 characters.
TEST(RouterStats, LongBackendNameIsNotTruncated) {
    const std::string prefix = "127.0.0.1:";
    const std::string name = prefix + std::string(300 - prefix.size() - 1, '0') + "1";
    ASSERT_EQ(name.size(), 300u);
    serve::RouterConfig rc;
    rc.backends = {name};
    rc.forwarders = 1;
    serve::Router router(rc);
    const std::string stats = router.stats_json();
    router.drain();
    EXPECT_NE(stats.find("\"name\": \"" + name + "\""), std::string::npos) << stats;
    int braces = 0, brackets = 0;
    for (const char c : stats) {
        braces += c == '{' ? 1 : c == '}' ? -1 : 0;
        brackets += c == '[' ? 1 : c == ']' ? -1 : 0;
        ASSERT_GE(braces, 0) << stats;
        ASSERT_GE(brackets, 0) << stats;
    }
    EXPECT_EQ(braces, 0) << stats;
    EXPECT_EQ(brackets, 0) << stats;
    EXPECT_EQ(stats.back(), '}') << stats;
}

// ---- live failover ---------------------------------------------------------

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

// A cpt-serve backend as the router sees one: a Server behind the epoll
// TcpServer on loopback. stop() tears the listener down completely (the
// listening fd closes with the TcpServer), so subsequent connects are
// refused — the same signal a killed backend process gives the router.
struct LiveBackend {
    explicit LiveBackend(const std::string& hub_dir, std::uint16_t port = 0)
        : server(backend_config(hub_dir)),
          tcp(std::make_unique<serve::TcpServer>(server, "127.0.0.1", port)),
          port_(tcp->port()),
          acceptor([this] { tcp->serve_forever(); }) {}
    ~LiveBackend() { stop(); }

    static serve::ServeConfig backend_config(const std::string& hub_dir) {
        serve::ServeConfig cfg;
        cfg.hub_dir = hub_dir;
        cfg.model = tiny_config();
        return cfg;
    }

    void stop() {
        if (!tcp) return;
        tcp->stop();
        acceptor.join();
        tcp.reset();
        server.drain();
    }

    std::string name() const { return "127.0.0.1:" + std::to_string(port_); }
    std::uint16_t port() const { return port_; }

    serve::Server server;
    std::unique_ptr<serve::TcpServer> tcp;
    std::uint16_t port_;
    std::thread acceptor;
};

struct RouterFixture : ::testing::Test {
    static void SetUpTestSuite() {
        dir = (std::filesystem::temp_directory_path() /
               ("cpt_router_test_hub_" + std::to_string(::getpid())))
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

    static serve::GenerateRequest pinned_request() {
        serve::GenerateRequest req;
        req.device = trace::DeviceType::kPhone;
        req.hour_of_day = 9;
        req.count = 4;
        req.seed = 77;
        req.deterministic = true;
        req.max_stream_len = 16;
        req.ue_prefix = "pin";
        return req;
    }

    static std::string dir;
};
std::string RouterFixture::dir;

TEST_F(RouterFixture, FailoverIsByteIdenticalToSingleBackend) {
    LiveBackend b1(dir);
    LiveBackend b2(dir);

    serve::RouterConfig rc;
    rc.backends = {b1.name(), b2.name()};
    rc.down_after_failures = 1;
    rc.health_interval_ms = 60000;  // transitions driven by forwards/check_backends_now
    serve::Router router(rc);

    const serve::GenerateRequest req = pinned_request();
    // Reference: the same deterministic request straight into one backend's
    // Server (the in-process path is pinned byte-identical to TCP by
    // serve_test / epoll_server_test).
    serve::GenerateResponse want = b1.server.generate(req);
    ASSERT_EQ(want.status, serve::Status::kOk) << want.error;
    ASSERT_EQ(want.streams.size(), req.count);

    serve::GenerateResponse through = router.generate(req);
    ASSERT_EQ(through.status, serve::Status::kOk) << through.error;
    ASSERT_EQ(through.streams.size(), want.streams.size());
    for (std::size_t i = 0; i < want.streams.size(); ++i) {
        expect_streams_identical(want.streams[i], through.streams[i]);
    }

    // Kill the slice's owner; the retried request must come back identical
    // from the survivor — which backend generates is invisible in the bytes.
    const std::string owner = router.owner_of(trace::DeviceType::kPhone, 9);
    ASSERT_TRUE(owner == b1.name() || owner == b2.name());
    (owner == b1.name() ? b1 : b2).stop();

    serve::GenerateResponse after = router.generate(req);
    ASSERT_EQ(after.status, serve::Status::kOk) << after.error;
    ASSERT_EQ(after.streams.size(), want.streams.size());
    for (std::size_t i = 0; i < want.streams.size(); ++i) {
        expect_streams_identical(want.streams[i], after.streams[i]);
    }

    const std::string stats = router.stats_json();
    EXPECT_NE(stats.find("\"failovers\": 1"), std::string::npos) << stats;
    router.drain();
}

TEST_F(RouterFixture, ProbeMarksDownAndRecoversOwnership) {
    auto backend = std::make_unique<LiveBackend>(dir);
    const std::string name = backend->name();
    const std::uint16_t port = backend->port();

    serve::RouterConfig rc;
    rc.backends = {name};
    rc.down_after_failures = 1;
    rc.health_interval_ms = 60000;
    serve::Router router(rc);
    EXPECT_EQ(router.owner_of(trace::DeviceType::kPhone, 9), name);
    EXPECT_TRUE(router.health().ok);

    backend->stop();
    router.check_backends_now();
    // Every backend down: no owner, health reports not-ok.
    EXPECT_EQ(router.owner_of(trace::DeviceType::kPhone, 9), "");
    EXPECT_FALSE(router.health().ok);

    // Restart on the same port; the next probe puts it back in the ring and
    // routing resumes.
    backend = std::make_unique<LiveBackend>(dir, port);
    router.check_backends_now();
    EXPECT_EQ(router.owner_of(trace::DeviceType::kPhone, 9), name);

    serve::GenerateResponse resp = router.generate(pinned_request());
    EXPECT_EQ(resp.status, serve::Status::kOk) << resp.error;
    router.drain();
}

}  // namespace
}  // namespace cpt
