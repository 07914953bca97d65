#include "client.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "net.hpp"

namespace cpt::serve {

namespace {

[[noreturn]] void throw_errno(const char* what) {
    throw std::runtime_error(std::string("serve: ") + what + ": " + std::strerror(errno));
}

}  // namespace

// ---- TcpClient -------------------------------------------------------------

TcpClient::TcpClient(const std::string& host, std::uint16_t port)
    : peer_(host + ":" + std::to_string(port)) {
    // Parse before creating the socket: if the host is not an IPv4 literal
    // the constructor exits by exception and the destructor never runs, so
    // an fd created first would leak. Callers are also promised a
    // TransportError, not the parser's runtime_error.
    sockaddr_in addr{};
    try {
        addr = net::make_addr(host, port);
    } catch (const std::exception& e) {
        throw TransportError(TransportError::Kind::kConnectFailed, peer_, 0,
                             /*response_started=*/false, e.what());
    }
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) throw_errno("socket");
    int rc;
    do {
        rc = ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    } while (rc < 0 && errno == EINTR);
    if (rc < 0) {
        const int err = errno;
        ::close(fd_);
        fd_ = -1;
        const auto kind = err == ECONNREFUSED ? TransportError::Kind::kConnectRefused
                                              : TransportError::Kind::kConnectFailed;
        throw TransportError(kind, peer_, err, /*response_started=*/false,
                             "serve: connect to " + peer_ + " failed: " + std::strerror(err));
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

TcpClient::~TcpClient() {
    if (fd_ >= 0) ::close(fd_);
}

void TcpClient::set_io_timeout(std::chrono::milliseconds timeout) {
    timeval tv{};
    tv.tv_sec = static_cast<time_t>(timeout.count() / 1000);
    tv.tv_usec = static_cast<suseconds_t>((timeout.count() % 1000) * 1000);
    if (::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) < 0 ||
        ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv)) < 0) {
        throw_errno("setsockopt(SO_RCVTIMEO)");
    }
}

// Maps a framing failure onto the typed client error. `response_started` is
// true only for failures on the read side after the first response byte
// arrived — exactly the failures the router must not retry.
const std::vector<std::uint8_t>& TcpClient::roundtrip(
    const std::vector<std::uint8_t>& request) {
    bool reading = false;
    try {
        write_frame(fd_, request);
        reading = true;
        if (!read_frame(fd_, frame_)) {
            throw TransportError(TransportError::Kind::kClosed, peer_, 0,
                                 /*response_started=*/false,
                                 "serve: " + peer_ + " closed connection before replying");
        }
        return frame_;
    } catch (const FrameError& e) {
        const bool response_started = reading && e.midstream();
        TransportError::Kind kind;
        switch (e.kind()) {
            case FrameError::Kind::kClosed:
                kind = TransportError::Kind::kClosed;
                break;
            case FrameError::Kind::kTimeout:
                kind = TransportError::Kind::kTimeout;
                break;
            case FrameError::Kind::kBadLength:
                kind = TransportError::Kind::kProtocol;
                break;
            case FrameError::Kind::kRecv:
            case FrameError::Kind::kSend:
            default:
                kind = (e.errno_code() == ECONNRESET || e.errno_code() == EPIPE)
                           ? TransportError::Kind::kReset
                           : TransportError::Kind::kProtocol;
                break;
        }
        throw TransportError(kind, peer_, e.errno_code(), response_started,
                             std::string(e.what()) + " (peer " + peer_ + ")");
    }
}

namespace {

// A decode failure after a complete frame arrived means the peer spoke the
// framing but not the payload schema: a protocol-level TransportError with
// response_started=true, so the router never retries it elsewhere.
template <typename DecodeFn>
auto decode_response(const std::string& peer, DecodeFn&& decode)
    -> decltype(decode()) {
    try {
        return decode();
    } catch (const std::exception& e) {
        throw TransportError(TransportError::Kind::kProtocol, peer, 0,
                             /*response_started=*/true,
                             std::string(e.what()) + " (peer " + peer + ")");
    }
}

}  // namespace

GenerateResponse TcpClient::generate(const GenerateRequest& request) {
    const auto& frame = roundtrip(encode_generate_request(request));
    return decode_response(peer_, [&] { return decode_generate_response(frame); });
}

std::string TcpClient::stats_json() {
    const auto& frame = roundtrip(encode_stats_request());
    return decode_response(peer_, [&] { return decode_stats_response(frame); });
}

HealthInfo TcpClient::health() {
    const auto& frame = roundtrip(encode_health_request());
    return decode_response(peer_, [&] { return decode_health_response(frame); });
}

// ---- connect_with_backoff --------------------------------------------------

std::unique_ptr<TcpClient> connect_with_backoff(const std::string& host, std::uint16_t port,
                                                const util::Backoff& backoff) {
    for (int attempt = 0;; ++attempt) {
        try {
            return std::make_unique<TcpClient>(host, port);
        } catch (const TransportError&) {
            if (!backoff.should_retry(attempt)) throw;
            backoff.sleep(attempt);
        }
    }
}

}  // namespace cpt::serve
