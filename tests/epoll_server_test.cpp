// Tests for the epoll event-loop TCP transport (DESIGN.md §15): partial
// frames dribbled across epoll ticks reassemble, pipelined frames answer in
// order, a slow reader drains a backpressured response intact, idle
// connections are reaped, and the bytes match the in-process path exactly
// (the transport only moves frames).
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/model_hub.hpp"
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

void expect_streams_identical(const trace::Stream& a, const trace::Stream& b) {
    EXPECT_EQ(a.ue_id, b.ue_id);
    EXPECT_EQ(a.device, b.device);
    EXPECT_EQ(a.hour_of_day, b.hour_of_day);
    ASSERT_EQ(a.events.size(), b.events.size()) << a.ue_id;
    for (std::size_t i = 0; i < a.events.size(); ++i) {
        EXPECT_EQ(a.events[i].timestamp, b.events[i].timestamp) << a.ue_id << " event " << i;
        EXPECT_EQ(a.events[i].type, b.events[i].type) << a.ue_id << " event " << i;
    }
}

// Raw blocking client socket, for driving the server below the TcpClient
// abstraction (chunked writes, pipelining, idle behaviour).
int raw_connect(std::uint16_t port) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr = serve::net::make_addr("127.0.0.1", port);
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0)
        << std::strerror(errno);
    return fd;
}

void send_all(int fd, const std::uint8_t* data, std::size_t len) {
    std::size_t off = 0;
    while (off < len) {
        const ssize_t n = ::send(fd, data + off, len - off, 0);
        ASSERT_GT(n, 0) << std::strerror(errno);
        off += static_cast<std::size_t>(n);
    }
}

// Length-prefixed frame bytes for a payload (what write_frame puts on the
// wire), materialized so tests can split them at arbitrary offsets.
std::vector<std::uint8_t> frame_bytes(const std::vector<std::uint8_t>& payload) {
    std::vector<std::uint8_t> out(4 + payload.size());
    const auto len = static_cast<std::uint32_t>(payload.size());
    out[0] = static_cast<std::uint8_t>(len & 0xff);
    out[1] = static_cast<std::uint8_t>((len >> 8) & 0xff);
    out[2] = static_cast<std::uint8_t>((len >> 16) & 0xff);
    out[3] = static_cast<std::uint8_t>((len >> 24) & 0xff);
    std::copy(payload.begin(), payload.end(), out.begin() + 4);
    return out;
}

struct EpollFixture : ::testing::Test {
    static void SetUpTestSuite() {
        dir = (std::filesystem::temp_directory_path() /
               ("cpt_epoll_test_hub_" + std::to_string(::getpid())))
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

    static serve::ServeConfig server_config() {
        serve::ServeConfig cfg;
        cfg.hub_dir = dir;
        cfg.model = tiny_config();
        return cfg;
    }

    static serve::GenerateRequest pinned_request(std::uint64_t seed, const char* prefix) {
        serve::GenerateRequest req;
        req.device = trace::DeviceType::kPhone;
        req.hour_of_day = 9;
        req.count = 3;
        req.seed = seed;
        req.deterministic = true;
        req.max_stream_len = 16;
        req.ue_prefix = prefix;
        return req;
    }

    static std::string dir;
};
std::string EpollFixture::dir;

// The epoll listener and a serve_forever thread, torn down on scope exit.
struct LiveServer {
    explicit LiveServer(serve::Server& server, serve::TcpServer::Options opts = {})
        : tcp(server, "127.0.0.1", 0, opts), acceptor([this] { tcp.serve_forever(); }) {}
    ~LiveServer() {
        tcp.stop();
        acceptor.join();
    }
    serve::TcpServer tcp;
    std::thread acceptor;
};

TEST_F(EpollFixture, TransportMatchesInProcessByteForByte) {
    serve::Server server(server_config());
    serve::TcpServer::Options opts;
    opts.workers = 3;
    LiveServer live(server, opts);

    const serve::GenerateRequest req = pinned_request(101, "pin");
    serve::GenerateResponse want = server.generate(req);
    ASSERT_EQ(want.status, serve::Status::kOk) << want.error;

    serve::TcpClient client("127.0.0.1", live.tcp.port());
    serve::GenerateResponse got = client.generate(req);
    ASSERT_EQ(got.status, serve::Status::kOk) << got.error;
    ASSERT_EQ(got.streams.size(), want.streams.size());
    for (std::size_t i = 0; i < want.streams.size(); ++i) {
        expect_streams_identical(want.streams[i], got.streams[i]);
    }
}

TEST_F(EpollFixture, PartialFramesDribbledAcrossTicksReassemble) {
    serve::Server server(server_config());
    serve::TcpServer::Options opts;
    opts.tick_ms = 20;  // several ticks elapse while the frame dribbles in
    LiveServer live(server, opts);

    const serve::GenerateRequest req = pinned_request(202, "dribble");
    const auto bytes = frame_bytes(serve::encode_generate_request(req));
    const int fd = raw_connect(live.tcp.port());

    // 3-byte chunks split the length prefix itself as well as the payload.
    for (std::size_t off = 0; off < bytes.size(); off += 3) {
        const std::size_t n = std::min<std::size_t>(3, bytes.size() - off);
        send_all(fd, bytes.data() + off, n);
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }

    std::vector<std::uint8_t> payload;
    ASSERT_TRUE(serve::read_frame(fd, payload));
    serve::GenerateResponse got = serve::decode_generate_response(payload);
    ASSERT_EQ(got.status, serve::Status::kOk) << got.error;

    serve::GenerateResponse want = server.generate(req);
    ASSERT_EQ(got.streams.size(), want.streams.size());
    for (std::size_t i = 0; i < want.streams.size(); ++i) {
        expect_streams_identical(want.streams[i], got.streams[i]);
    }
    ::close(fd);
}

TEST_F(EpollFixture, PipelinedFramesAnswerInOrder) {
    serve::Server server(server_config());
    LiveServer live(server);

    const serve::GenerateRequest first = pinned_request(301, "first");
    const serve::GenerateRequest second = pinned_request(302, "second");
    // Both requests and a stats probe land in one send; the connection must
    // answer strictly in order even though generation is asynchronous.
    std::vector<std::uint8_t> wire;
    for (const auto* req : {&first, &second}) {
        const auto f = frame_bytes(serve::encode_generate_request(*req));
        wire.insert(wire.end(), f.begin(), f.end());
    }
    const auto stats_frame = frame_bytes(serve::encode_stats_request());
    wire.insert(wire.end(), stats_frame.begin(), stats_frame.end());

    const int fd = raw_connect(live.tcp.port());
    send_all(fd, wire.data(), wire.size());

    for (const auto* req : {&first, &second}) {
        std::vector<std::uint8_t> payload;
        ASSERT_TRUE(serve::read_frame(fd, payload));
        serve::GenerateResponse got = serve::decode_generate_response(payload);
        ASSERT_EQ(got.status, serve::Status::kOk) << got.error;
        ASSERT_EQ(got.streams.size(), req->count);
        // Stream labels carry the request's prefix — proof responses are not
        // reordered across the pipelined frames.
        EXPECT_EQ(got.streams[0].ue_id.rfind(req->ue_prefix + "-", 0), std::size_t{0})
            << got.streams[0].ue_id;
    }
    std::vector<std::uint8_t> payload;
    ASSERT_TRUE(serve::read_frame(fd, payload));
    EXPECT_EQ(serve::peek_type(payload), serve::MsgType::kStatsResponse);
    ::close(fd);
}

TEST_F(EpollFixture, SlowReaderDrainsBackpressuredResponseIntact) {
    serve::Server server(server_config());
    LiveServer live(server);

    // A response big enough to overflow the client's shrunken receive window,
    // forcing the worker through its EAGAIN -> EPOLLOUT write-buffer path.
    serve::GenerateRequest req = pinned_request(404, "slow");
    req.count = 24;
    req.max_stream_len = 30;

    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    const int rcvbuf = 2048;
    ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf)), 0);
    sockaddr_in addr = serve::net::make_addr("127.0.0.1", live.tcp.port());
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0)
        << std::strerror(errno);

    const auto bytes = frame_bytes(serve::encode_generate_request(req));
    send_all(fd, bytes.data(), bytes.size());
    // Let the response land in the server's write buffer before reading.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));

    // Drain the length prefix, then the payload in small delayed bites.
    std::uint8_t len_le[4];
    std::size_t got_len = 0;
    while (got_len < 4) {
        const ssize_t n = ::recv(fd, len_le + got_len, 4 - got_len, 0);
        ASSERT_GT(n, 0) << std::strerror(errno);
        got_len += static_cast<std::size_t>(n);
    }
    const std::uint32_t frame_len = static_cast<std::uint32_t>(len_le[0]) |
                                    (static_cast<std::uint32_t>(len_le[1]) << 8) |
                                    (static_cast<std::uint32_t>(len_le[2]) << 16) |
                                    (static_cast<std::uint32_t>(len_le[3]) << 24);
    ASSERT_GT(frame_len, 0u);
    std::vector<std::uint8_t> payload(frame_len);
    std::size_t off = 0;
    while (off < payload.size()) {
        const std::size_t want = std::min<std::size_t>(512, payload.size() - off);
        const ssize_t n = ::recv(fd, payload.data() + off, want, 0);
        ASSERT_GT(n, 0) << std::strerror(errno);
        off += static_cast<std::size_t>(n);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }

    serve::GenerateResponse got = serve::decode_generate_response(payload);
    ASSERT_EQ(got.status, serve::Status::kOk) << got.error;
    serve::GenerateResponse want = server.generate(req);
    ASSERT_EQ(got.streams.size(), want.streams.size());
    for (std::size_t i = 0; i < want.streams.size(); ++i) {
        expect_streams_identical(want.streams[i], got.streams[i]);
    }
    ::close(fd);
}

TEST_F(EpollFixture, PipelineBurstBeyondFrameCapAnswersCompletely) {
    serve::Server server(server_config());
    serve::TcpServer::Options opts;
    opts.workers = 1;
    LiveServer live(server, opts);

    // One generate parks the connection busy, then a burst of stats frames
    // larger than the worker's queued-frame cap lands behind it. The loop
    // must pause reading (bounded memory) instead of queueing unboundedly,
    // then resume once the generate completes and answer every frame in
    // order — a response per request, nothing dropped.
    constexpr int kBurst = 100;  // > kMaxQueuedFrames (64)
    std::vector<std::uint8_t> wire =
        frame_bytes(serve::encode_generate_request(pinned_request(606, "burst")));
    const auto stats_frame = frame_bytes(serve::encode_stats_request());
    for (int i = 0; i < kBurst; ++i) {
        wire.insert(wire.end(), stats_frame.begin(), stats_frame.end());
    }

    const int fd = raw_connect(live.tcp.port());
    send_all(fd, wire.data(), wire.size());

    std::vector<std::uint8_t> payload;
    ASSERT_TRUE(serve::read_frame(fd, payload));
    ASSERT_EQ(serve::peek_type(payload), serve::MsgType::kGenerateResponse);
    serve::GenerateResponse got = serve::decode_generate_response(payload);
    ASSERT_EQ(got.status, serve::Status::kOk) << got.error;
    for (int i = 0; i < kBurst; ++i) {
        ASSERT_TRUE(serve::read_frame(fd, payload)) << "stats reply " << i;
        ASSERT_EQ(serve::peek_type(payload), serve::MsgType::kStatsResponse) << i;
    }
    ::close(fd);
}

TEST_F(EpollFixture, IdleConnectionsAreReaped) {
    serve::Server server(server_config());
    serve::TcpServer::Options opts;
    opts.workers = 1;
    opts.idle_timeout_ms = 100;
    opts.tick_ms = 20;
    LiveServer live(server, opts);

    const int fd = raw_connect(live.tcp.port());
    // Send nothing: the sweep must close us. Bound the wait so a regression
    // fails instead of hanging.
    timeval tv{};
    tv.tv_sec = 5;
    ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)), 0);
    std::uint8_t byte = 0;
    const ssize_t n = ::recv(fd, &byte, 1, 0);
    EXPECT_EQ(n, 0) << "expected EOF from idle sweep, got " << n << " (" << std::strerror(errno)
                    << ")";
    ::close(fd);
}

TEST_F(EpollFixture, HealthAndStatsServeFromTheEventLoop) {
    serve::Server server(server_config());
    LiveServer live(server);

    serve::TcpClient client("127.0.0.1", live.tcp.port());
    const serve::HealthInfo h = client.health();
    EXPECT_TRUE(h.ok);
    EXPECT_FALSE(h.draining);
    const std::string stats = client.stats_json();
    EXPECT_FALSE(stats.empty());
    EXPECT_EQ(stats.front(), '{');
}

TEST_F(EpollFixture, StopDrainsWorkersAndUnblocksServeForever) {
    serve::Server server(server_config());
    auto live = std::make_unique<LiveServer>(server);
    const std::uint16_t port = live->tcp.port();
    {
        serve::TcpClient client("127.0.0.1", port);
        serve::GenerateResponse resp = client.generate(pinned_request(505, "stop"));
        ASSERT_EQ(resp.status, serve::Status::kOk) << resp.error;
    }
    live->tcp.stop();
    live.reset();  // joins serve_forever; hangs (and times out) on regression
    EXPECT_THROW(serve::TcpClient("127.0.0.1", port), serve::TransportError);
}

}  // namespace
}  // namespace cpt
