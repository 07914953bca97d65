// Epoll-based non-blocking TCP listener for cpt-serve (DESIGN.md §15).
//
// A thread-per-connection listener spends an OS thread (stack, scheduler
// slot) per client even when the client is idle, which caps a backend at its
// thread budget (bench_results/BENCH_serve.json: 64 connections against this
// loop's 256). This server holds thousands of mostly-idle connections on a
// small fixed thread set instead:
//
//   * one acceptor (the serve_forever caller) accepts and hands each socket
//     to a worker round-robin;
//   * N worker event loops, each owning an epoll set and the full state of
//     its connections — read buffer with partial-frame resume, queued
//     complete frames, write buffer with EPOLLOUT backpressure, idle clock.
//     Connection state is confined to its worker thread; the only shared
//     structure is a small mailbox (new sockets in, generation completions
//     in) locked for microseconds and paired with an eventfd wakeup.
//
// Requests dispatch through Service::generate_async, so a slow generate
// never blocks the loop: the worker parks the connection as busy, keeps
// serving its other connections, and resumes when the engine's completion
// callback posts to the mailbox. Frames on one connection are still
// processed strictly in order.
//
// Byte-identical semantics: this layer only moves frames; request decoding,
// engine scheduling, and stream synthesis are untouched, so a deterministic
// request returns the same bytes as the in-process path (pinned by
// tests/epoll_server_test.cpp).
//
// Shutdown: stop() (or the interrupt callback) stops admission; workers
// finish every dispatched request, flush response buffers, then close —
// bounded by Options::drain_timeout_ms, after which stragglers are closed
// forcibly.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "service.hpp"
#include "util/sync.hpp"

namespace cpt::serve {

class TcpServer {
public:
    struct Options {
        std::size_t workers = 2;       // event-loop threads (clamped to >= 1)
        int idle_timeout_ms = 60000;   // close connections idle this long (0 = never)
        int tick_ms = 200;             // epoll wait granularity (interrupt/idle checks)
        int drain_timeout_ms = 5000;   // shutdown deadline for in-flight + flush
    };

    // Binds and listens on host:port; port 0 picks an ephemeral port (read it
    // back with port()). Worker event loops start immediately; sockets are
    // only handed to them by serve_forever. Throws std::runtime_error on
    // socket errors. (Two overloads rather than a defaulted Options argument:
    // GCC cannot use a nested class's member initializers in a default
    // argument of the enclosing class.)
    explicit TcpServer(Service& service, const std::string& host = "127.0.0.1",
                       std::uint16_t port = 0);
    TcpServer(Service& service, const std::string& host, std::uint16_t port, Options opts);
    ~TcpServer();

    TcpServer(const TcpServer&) = delete;
    TcpServer& operator=(const TcpServer&) = delete;

    std::uint16_t port() const { return port_; }

    // Accepts connections until stop() is called or `interrupt` returns true
    // (checked every Options::tick_ms). Drains and joins the worker loops
    // before returning. Call from the thread that should own the accept loop.
    void serve_forever(const std::function<bool()>& interrupt = nullptr);

    // Stops admission and begins the drain; safe to call from another thread
    // or more than once. serve_forever unblocks within one tick.
    void stop();

private:
    class Worker;

    void join_workers();

    Service& service_;
    Options opts_;
    std::uint16_t port_ = 0;
    std::vector<std::unique_ptr<Worker>> workers_;

    mutable util::Mutex mu_;
    int listen_fd_ CPT_GUARDED_BY(mu_) = -1;
    bool stopping_ CPT_GUARDED_BY(mu_) = false;
    bool workers_joined_ CPT_GUARDED_BY(mu_) = false;
};

}  // namespace cpt::serve
