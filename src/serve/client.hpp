// Blocking TCP client pieces for cpt-serve: the client (TcpClient) with typed
// transport errors, and a bounded reconnect helper (connect_with_backoff) the
// router's failover path reuses. The listener is the epoll TcpServer in
// event_loop.hpp.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "service.hpp"
#include "util/backoff.hpp"

namespace cpt::serve {

// Typed client-side transport failure. Carries the peer address, the errno
// that caused it, and — the bit the router's failover logic keys on —
// whether any byte of the response had already arrived. A refused connect or
// a request that died before the first response byte is safe to retry
// against another backend (generation is idempotent for deterministic
// requests); a partially-streamed response is not.
class TransportError : public std::runtime_error {
public:
    enum class Kind {
        kConnectRefused,  // ECONNREFUSED: nothing is listening on the peer
        kConnectFailed,   // any other connect(2) failure
        kClosed,          // peer closed the connection (EOF)
        kReset,           // ECONNRESET / EPIPE mid-conversation
        kTimeout,         // configured I/O timeout expired
        kProtocol,        // malformed frame or payload from the peer
    };

    TransportError(Kind kind, std::string peer, int errno_code, bool response_started,
                   const std::string& what)
        : std::runtime_error(what),
          kind_(kind),
          peer_(std::move(peer)),
          errno_(errno_code),
          response_started_(response_started) {}

    Kind kind() const { return kind_; }
    const std::string& peer() const { return peer_; }  // "host:port"
    int errno_code() const { return errno_; }
    bool response_started() const { return response_started_; }

private:
    Kind kind_;
    std::string peer_;
    int errno_;
    bool response_started_;
};

class TcpClient {
public:
    // Connects to host:port; throws TransportError on failure
    // (kConnectRefused when nothing is listening).
    TcpClient(const std::string& host, std::uint16_t port);
    ~TcpClient();

    TcpClient(const TcpClient&) = delete;
    TcpClient& operator=(const TcpClient&) = delete;

    // Peer address as "host:port" (for error messages and logs).
    const std::string& peer() const { return peer_; }

    // Bounds every subsequent send/recv (SO_SNDTIMEO/SO_RCVTIMEO); an
    // expired timeout surfaces as TransportError::Kind::kTimeout. Zero
    // restores blocking I/O.
    void set_io_timeout(std::chrono::milliseconds timeout);

    // Round-trips one request frame. Throws TransportError on transport or
    // protocol errors; service-level failures come back in the response
    // status instead.
    GenerateResponse generate(const GenerateRequest& request);
    std::string stats_json();
    HealthInfo health();

private:
    const std::vector<std::uint8_t>& roundtrip(const std::vector<std::uint8_t>& request);

    int fd_ = -1;
    std::string peer_;
    std::vector<std::uint8_t> frame_;  // reused receive buffer
};

// Connects with bounded, deterministic backoff: retries refused/unreachable
// connects per `policy`, rethrowing the last TransportError when attempts
// are exhausted. Protocol-level errors are never retried here.
std::unique_ptr<TcpClient> connect_with_backoff(const std::string& host, std::uint16_t port,
                                                const util::Backoff& backoff);

}  // namespace cpt::serve
