// Wire protocol for the cpt-serve generation service (paper §4.5: downstream
// users synthesize traffic on demand from released model packages).
//
// Framing is length-prefixed binary over a connected stream socket: every
// message is a little-endian u32 payload length followed by the payload. The
// payload starts with a one-byte message type; all integers are little-endian
// and all strings are u16/u32 length-prefixed bytes (no NUL terminators).
// The same encode/decode functions back the TCP transport and the in-process
// client, so the two are interchangeable in tests.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "trace/stream.hpp"

namespace cpt::serve {

enum class MsgType : std::uint8_t {
    kGenerateRequest = 1,
    kStatsRequest = 2,
    kHealthRequest = 3,
    kGenerateResponse = 16,
    kStatsResponse = 17,
    kHealthResponse = 18,
};

enum class Status : std::uint8_t {
    kOk = 0,
    kQueueFull = 1,     // admission queue at capacity — back off and retry
    kDeadline = 2,      // request evicted at a compaction after its deadline
    kNoModel = 3,       // hub has no release for the requested slice
    kShuttingDown = 4,  // server is draining
    kBadRequest = 5,    // malformed or out-of-range request fields
    kUpstream = 6,      // router: every candidate backend failed (or one died
                        // mid-response, which is never retried)
};

const char* status_name(Status s);

// A per-UE stream-synthesis request for one (device, hour) hub slice.
struct GenerateRequest {
    trace::DeviceType device = trace::DeviceType::kPhone;
    int hour_of_day = 0;
    std::uint32_t count = 1;      // streams to synthesize
    std::uint64_t seed = 1;       // deterministic mode: stream i uses Rng(seed).fork(i)
    bool deterministic = false;   // false: the server forks from its own RNG
    float temperature = -1.0f;    // sampler overrides; negative = slice default
    float top_p = -1.0f;
    std::uint32_t max_stream_len = 0;  // 0 = slice default
    std::uint32_t deadline_ms = 0;     // 0 = server default
    std::string ue_prefix = "serve";   // streams are labelled "<prefix>-%06zu";
                                       // at most kMaxUePrefixBytes
};

// The longest ue_prefix a server accepts, in bytes. It keeps every id
// "<prefix>-<serial>" far below the 0xffff bytes a response can encode, and
// bounds the id memory a request holds per stream.
inline constexpr std::size_t kMaxUePrefixBytes = 256;

struct GenerateResponse {
    Status status = Status::kOk;
    std::string error;  // human-readable detail when status != kOk
    std::vector<trace::Stream> streams;
};

// Liveness + open-loop load signal for the router's health checker. A backend
// answers with its drain state and queue pressure; the router answers for
// itself with its healthy-backend count in `engines`.
struct HealthInfo {
    bool ok = true;                     // accepting requests
    bool draining = false;              // shutting down: finish in-flight only
    std::uint32_t engines = 0;          // live slice engines (router: healthy backends)
    std::uint32_t active_requests = 0;  // queued + in-flight requests
    std::uint64_t streams_done = 0;     // lifetime completed streams
    double uptime_seconds = 0.0;
};

// ---- payload encode/decode (excludes the u32 frame length) ----
std::vector<std::uint8_t> encode_generate_request(const GenerateRequest& req);
std::vector<std::uint8_t> encode_generate_response(const GenerateResponse& resp);
std::vector<std::uint8_t> encode_stats_request();
std::vector<std::uint8_t> encode_stats_response(const std::string& json);
std::vector<std::uint8_t> encode_health_request();
std::vector<std::uint8_t> encode_health_response(const HealthInfo& info);

// First payload byte; throws std::runtime_error on an empty or unknown-typed
// payload.
MsgType peek_type(std::span<const std::uint8_t> payload);

// Decoders throw std::runtime_error on truncated or malformed payloads.
GenerateRequest decode_generate_request(std::span<const std::uint8_t> payload);
GenerateResponse decode_generate_response(std::span<const std::uint8_t> payload);
std::string decode_stats_response(std::span<const std::uint8_t> payload);
HealthInfo decode_health_response(std::span<const std::uint8_t> payload);

// Transport failure raised by read_frame/write_frame, typed so callers
// (TcpClient, the router's failover path) can attach the peer address and
// decide whether a retry is safe. `midstream` is the load-bearing bit: true
// once any byte of the current frame moved, i.e. a response partially
// streamed — a failure the router must NOT retry.
class FrameError : public std::runtime_error {
public:
    enum class Kind {
        kClosed,     // peer closed inside a frame (EOF mid-frame)
        kRecv,       // recv(2) failed; errno_code says why
        kSend,       // send(2) failed; errno_code says why
        kTimeout,    // SO_RCVTIMEO/SO_SNDTIMEO expired (EAGAIN on a blocking fd)
        kBadLength,  // frame length 0 or above kMaxFrameBytes
    };

    FrameError(Kind kind, int errno_code, bool midstream, const std::string& what)
        : std::runtime_error(what), kind_(kind), errno_(errno_code), midstream_(midstream) {}

    Kind kind() const { return kind_; }
    int errno_code() const { return errno_; }
    bool midstream() const { return midstream_; }

private:
    Kind kind_;
    int errno_;
    bool midstream_;
};

// ---- framing over a connected socket fd ----
// Reads one frame; returns false on clean EOF at a frame boundary, throws
// FrameError on I/O errors, truncation mid-frame, or frames above
// kMaxFrameBytes.
bool read_frame(int fd, std::vector<std::uint8_t>& payload);
void write_frame(int fd, std::span<const std::uint8_t> payload);

inline constexpr std::uint32_t kMaxFrameBytes = 64u << 20;  // defensive cap

}  // namespace cpt::serve
