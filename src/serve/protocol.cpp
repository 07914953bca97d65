#include "protocol.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

namespace cpt::serve {

const char* status_name(Status s) {
    switch (s) {
        case Status::kOk: return "ok";
        case Status::kQueueFull: return "queue_full";
        case Status::kDeadline: return "deadline_exceeded";
        case Status::kNoModel: return "no_model";
        case Status::kShuttingDown: return "shutting_down";
        case Status::kBadRequest: return "bad_request";
        case Status::kUpstream: return "upstream_error";
    }
    return "unknown";
}

namespace {

// Little-endian byte-level writer/reader. Explicit byte shuffling (rather
// than memcpy of host-order structs) keeps the wire format stable across
// compilers and padding rules.
struct Writer {
    std::vector<std::uint8_t> buf;

    void u8(std::uint8_t v) { buf.push_back(v); }
    void u16(std::uint16_t v) {
        buf.push_back(static_cast<std::uint8_t>(v));
        buf.push_back(static_cast<std::uint8_t>(v >> 8));
    }
    void u32(std::uint32_t v) {
        for (int i = 0; i < 4; ++i) buf.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
    void u64(std::uint64_t v) {
        for (int i = 0; i < 8; ++i) buf.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
    void f32(float v) {
        std::uint32_t bits;
        std::memcpy(&bits, &v, 4);
        u32(bits);
    }
    void f64(double v) {
        std::uint64_t bits;
        std::memcpy(&bits, &v, 8);
        u64(bits);
    }
    void str16(const std::string& s) {
        if (s.size() > 0xffff) throw std::runtime_error("protocol: string too long");
        u16(static_cast<std::uint16_t>(s.size()));
        const std::size_t at = buf.size();
        buf.resize(at + s.size());
        if (!s.empty()) std::memcpy(buf.data() + at, s.data(), s.size());
    }
};

struct Reader {
    std::span<const std::uint8_t> buf;
    std::size_t pos = 0;

    void need(std::size_t n) const {
        if (pos + n > buf.size()) throw std::runtime_error("protocol: truncated message");
    }
    std::uint8_t u8() {
        need(1);
        return buf[pos++];
    }
    std::uint16_t u16() {
        need(2);
        std::uint16_t v = static_cast<std::uint16_t>(buf[pos]) |
                          static_cast<std::uint16_t>(buf[pos + 1]) << 8;
        pos += 2;
        return v;
    }
    std::uint32_t u32() {
        need(4);
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(buf[pos + i]) << (8 * i);
        pos += 4;
        return v;
    }
    std::uint64_t u64() {
        need(8);
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(buf[pos + i]) << (8 * i);
        pos += 8;
        return v;
    }
    float f32() {
        const std::uint32_t bits = u32();
        float v;
        std::memcpy(&v, &bits, 4);
        return v;
    }
    double f64() {
        const std::uint64_t bits = u64();
        double v;
        std::memcpy(&v, &bits, 8);
        return v;
    }
    std::string str16() {
        const std::uint16_t n = u16();
        need(n);
        std::string s(reinterpret_cast<const char*>(buf.data() + pos), n);
        pos += n;
        return s;
    }
    void expect_end() const {
        if (pos != buf.size()) throw std::runtime_error("protocol: trailing bytes");
    }
};

void expect_type(Reader& r, MsgType want) {
    const auto got = static_cast<MsgType>(r.u8());
    if (got != want) throw std::runtime_error("protocol: unexpected message type");
}

// Wire sizes: an event is an f64 timestamp and a u8 type; a stream carries at
// least its u16 id length, device, hour and u32 event count.
constexpr std::size_t kEventBytes = 9;
constexpr std::size_t kStreamHeaderBytes = 8;

void write_stream(Writer& w, const trace::Stream& s) {
    w.str16(s.ue_id);
    w.u8(static_cast<std::uint8_t>(s.device));
    w.u8(static_cast<std::uint8_t>(s.hour_of_day));
    w.u32(static_cast<std::uint32_t>(s.events.size()));
    for (const auto& e : s.events) {
        w.f64(e.timestamp);
        w.u8(e.type);
    }
}

trace::Stream read_stream(Reader& r) {
    trace::Stream s;
    s.ue_id = r.str16();
    s.device = static_cast<trace::DeviceType>(r.u8());
    s.hour_of_day = r.u8();
    const std::uint32_t n = r.u32();
    r.need(n * kEventBytes);
    s.events.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
        const double t = r.f64();
        const auto type = static_cast<cellular::EventId>(r.u8());
        s.events.push_back({t, type});
    }
    return s;
}

}  // namespace

std::vector<std::uint8_t> encode_generate_request(const GenerateRequest& req) {
    Writer w;
    w.u8(static_cast<std::uint8_t>(MsgType::kGenerateRequest));
    w.u8(static_cast<std::uint8_t>(req.device));
    w.u8(static_cast<std::uint8_t>(req.hour_of_day));
    w.u8(req.deterministic ? 1 : 0);
    w.u32(req.count);
    w.u64(req.seed);
    w.f32(req.temperature);
    w.f32(req.top_p);
    w.u32(req.max_stream_len);
    w.u32(req.deadline_ms);
    w.str16(req.ue_prefix);
    return std::move(w.buf);
}

GenerateRequest decode_generate_request(std::span<const std::uint8_t> payload) {
    Reader r{payload};
    expect_type(r, MsgType::kGenerateRequest);
    GenerateRequest req;
    req.device = static_cast<trace::DeviceType>(r.u8());
    req.hour_of_day = r.u8();
    req.deterministic = r.u8() != 0;
    req.count = r.u32();
    req.seed = r.u64();
    req.temperature = r.f32();
    req.top_p = r.f32();
    req.max_stream_len = r.u32();
    req.deadline_ms = r.u32();
    req.ue_prefix = r.str16();
    r.expect_end();
    return req;
}

std::vector<std::uint8_t> encode_generate_response(const GenerateResponse& resp) {
    Writer w;
    w.u8(static_cast<std::uint8_t>(MsgType::kGenerateResponse));
    w.u8(static_cast<std::uint8_t>(resp.status));
    w.str16(resp.error);
    w.u32(static_cast<std::uint32_t>(resp.streams.size()));
    for (const auto& s : resp.streams) write_stream(w, s);
    return std::move(w.buf);
}

GenerateResponse decode_generate_response(std::span<const std::uint8_t> payload) {
    Reader r{payload};
    expect_type(r, MsgType::kGenerateResponse);
    GenerateResponse resp;
    resp.status = static_cast<Status>(r.u8());
    resp.error = r.str16();
    const std::uint32_t n = r.u32();
    r.need(n * kStreamHeaderBytes);
    resp.streams.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) resp.streams.push_back(read_stream(r));
    r.expect_end();
    return resp;
}

std::vector<std::uint8_t> encode_stats_request() {
    Writer w;
    w.u8(static_cast<std::uint8_t>(MsgType::kStatsRequest));
    return std::move(w.buf);
}

std::vector<std::uint8_t> encode_stats_response(const std::string& json) {
    Writer w;
    w.u8(static_cast<std::uint8_t>(MsgType::kStatsResponse));
    w.u32(static_cast<std::uint32_t>(json.size()));
    w.buf.insert(w.buf.end(), json.begin(), json.end());
    return std::move(w.buf);
}

std::string decode_stats_response(std::span<const std::uint8_t> payload) {
    Reader r{payload};
    expect_type(r, MsgType::kStatsResponse);
    const std::uint32_t n = r.u32();
    r.need(n);
    std::string json(reinterpret_cast<const char*>(r.buf.data() + r.pos), n);
    r.pos += n;
    r.expect_end();
    return json;
}

std::vector<std::uint8_t> encode_health_request() {
    Writer w;
    w.u8(static_cast<std::uint8_t>(MsgType::kHealthRequest));
    return std::move(w.buf);
}

std::vector<std::uint8_t> encode_health_response(const HealthInfo& info) {
    Writer w;
    w.u8(static_cast<std::uint8_t>(MsgType::kHealthResponse));
    w.u8(info.ok ? 1 : 0);
    w.u8(info.draining ? 1 : 0);
    w.u32(info.engines);
    w.u32(info.active_requests);
    w.u64(info.streams_done);
    w.f64(info.uptime_seconds);
    return std::move(w.buf);
}

HealthInfo decode_health_response(std::span<const std::uint8_t> payload) {
    Reader r{payload};
    expect_type(r, MsgType::kHealthResponse);
    HealthInfo info;
    info.ok = r.u8() != 0;
    info.draining = r.u8() != 0;
    info.engines = r.u32();
    info.active_requests = r.u32();
    info.streams_done = r.u64();
    info.uptime_seconds = r.f64();
    r.expect_end();
    return info;
}

MsgType peek_type(std::span<const std::uint8_t> payload) {
    if (payload.empty()) throw std::runtime_error("protocol: empty payload");
    const auto t = payload[0];
    if (t != static_cast<std::uint8_t>(MsgType::kGenerateRequest) &&
        t != static_cast<std::uint8_t>(MsgType::kStatsRequest) &&
        t != static_cast<std::uint8_t>(MsgType::kHealthRequest) &&
        t != static_cast<std::uint8_t>(MsgType::kGenerateResponse) &&
        t != static_cast<std::uint8_t>(MsgType::kStatsResponse) &&
        t != static_cast<std::uint8_t>(MsgType::kHealthResponse)) {
        throw std::runtime_error("protocol: unknown message type " + std::to_string(t));
    }
    return static_cast<MsgType>(t);
}

namespace {

// Full reads/writes over a possibly-interrupted socket. `frame_started` is
// true once any byte of the current frame has already moved — it propagates
// into FrameError::midstream() so the router can tell a safe-to-retry
// connection failure from a partially-streamed response.
bool read_exact(int fd, std::uint8_t* dst, std::size_t n, bool eof_ok,
                bool frame_started) {
    std::size_t got = 0;
    while (got < n) {
        const ssize_t r = ::recv(fd, dst + got, n - got, 0);
        if (r == 0) {
            if (got == 0 && !frame_started && eof_ok) return false;
            throw FrameError(FrameError::Kind::kClosed, 0,
                             frame_started || got > 0,
                             "protocol: connection closed mid-frame");
        }
        if (r < 0) {
            if (errno == EINTR) continue;
            const int err = errno;
            const bool mid = frame_started || got > 0;
            if (err == EAGAIN || err == EWOULDBLOCK) {
                throw FrameError(FrameError::Kind::kTimeout, err, mid,
                                 "protocol: recv timed out");
            }
            throw FrameError(FrameError::Kind::kRecv, err, mid,
                             std::string("protocol: recv failed: ") + std::strerror(err));
        }
        got += static_cast<std::size_t>(r);
    }
    return true;
}

void write_all(int fd, const std::uint8_t* src, std::size_t n, bool frame_started) {
    std::size_t sent = 0;
    while (sent < n) {
        const ssize_t r = ::send(fd, src + sent, n - sent, MSG_NOSIGNAL);
        if (r < 0) {
            if (errno == EINTR) continue;
            const int err = errno;
            const bool mid = frame_started || sent > 0;
            if (err == EAGAIN || err == EWOULDBLOCK) {
                throw FrameError(FrameError::Kind::kTimeout, err, mid,
                                 "protocol: send timed out");
            }
            throw FrameError(FrameError::Kind::kSend, err, mid,
                             std::string("protocol: send failed: ") + std::strerror(err));
        }
        sent += static_cast<std::size_t>(r);
    }
}

}  // namespace

bool read_frame(int fd, std::vector<std::uint8_t>& payload) {
    std::uint8_t hdr[4];
    if (!read_exact(fd, hdr, 4, /*eof_ok=*/true, /*frame_started=*/false)) return false;
    std::uint32_t len = 0;
    for (int i = 0; i < 4; ++i) len |= static_cast<std::uint32_t>(hdr[i]) << (8 * i);
    if (len == 0 || len > kMaxFrameBytes) {
        throw FrameError(FrameError::Kind::kBadLength, 0, /*midstream=*/true,
                         "protocol: bad frame length " + std::to_string(len));
    }
    payload.resize(len);
    read_exact(fd, payload.data(), len, /*eof_ok=*/false, /*frame_started=*/true);
    return true;
}

void write_frame(int fd, std::span<const std::uint8_t> payload) {
    if (payload.empty() || payload.size() > kMaxFrameBytes) {
        throw FrameError(FrameError::Kind::kBadLength, 0, /*midstream=*/false,
                         "protocol: bad frame length " + std::to_string(payload.size()));
    }
    std::uint8_t hdr[4];
    for (int i = 0; i < 4; ++i) {
        hdr[i] = static_cast<std::uint8_t>(payload.size() >> (8 * i));
    }
    write_all(fd, hdr, 4, /*frame_started=*/false);
    write_all(fd, payload.data(), payload.size(), /*frame_started=*/true);
}

}  // namespace cpt::serve
