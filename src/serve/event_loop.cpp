#include "event_loop.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <map>
#include <thread>
#include <utility>

#include "net.hpp"
#include "util/epoll.hpp"
#include "util/log.hpp"

namespace cpt::serve {

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kReadChunk = 64 * 1024;

// Read-side backpressure caps. A client that pipelines faster than the
// engine answers must be throttled at the socket (TCP flow control), not
// buffered without bound in userspace: reading pauses — EPOLLIN dropped —
// while a generate is in flight or these caps are exceeded, and resumes
// once dispatch drains the queue.
constexpr std::size_t kMaxQueuedFrames = 64;                  // parsed frames awaiting dispatch
constexpr std::size_t kMaxBufferedReadBytes = 1 * 1024 * 1024;  // unparsed inbound bytes
// One hot connection also must not monopolize its worker: after this many
// full chunks per wake-up the loop moves on (level-triggered EPOLLIN
// re-fires while bytes remain).
constexpr int kMaxReadsPerEvent = 4;

}  // namespace

// ---- Worker: one event loop owning a set of connections --------------------
//
// Thread confinement: every field of Worker and Conn except the Mailbox is
// touched only by the worker thread (the constructor runs before the thread
// starts; join() happens-after everything the thread did), so none of it
// needs a lock. Cross-thread traffic — new sockets from the acceptor,
// completions from engine threads, the stop signal — goes through the
// Mailbox under its mutex, paired with an eventfd so a sleeping epoll_wait
// learns about it immediately.
class TcpServer::Worker {
public:
    Worker(Service& service, const Options& opts)
        : service_(service), opts_(opts), mail_(std::make_shared<Mailbox>()) {
        thread_ = std::thread([this] { run(); });
    }

    ~Worker() { join(); }

    // Acceptor handoff: the worker owns `fd` from here on. A socket handed
    // over after the worker began stopping is closed right here — the
    // worker's run() may already be past its final mailbox sweep, and an fd
    // parked in a dead mailbox would leak.
    void adopt(int fd) {
        {
            util::LockGuard lk(mail_->mu);
            if (mail_->stopping) {
                ::close(fd);
                return;
            }
            mail_->incoming.push_back(fd);
        }
        mail_->wake.notify();
    }

    void begin_stop() {
        {
            util::LockGuard lk(mail_->mu);
            mail_->stopping = true;
        }
        mail_->wake.notify();
    }

    void join() {
        if (thread_.joinable()) thread_.join();
    }

private:
    // Cross-thread inbox. Kept in a shared_ptr because generate_async
    // completion callbacks capture it: a completion that fires after the
    // worker exited (e.g. for a connection that died mid-generate during
    // shutdown) posts into orphaned-but-alive memory instead of a dangling
    // reference.
    struct Mailbox {
        mutable util::Mutex mu;
        std::vector<int> incoming CPT_GUARDED_BY(mu);  // sockets from the acceptor
        // (connection serial, finished response) from engine threads
        std::vector<std::pair<std::uint64_t, GenerateResponse>> done CPT_GUARDED_BY(mu);
        bool stopping CPT_GUARDED_BY(mu) = false;
        util::WakeFd wake;
    };

    struct Conn {
        std::uint64_t serial = 0;  // completion routing key (fds get reused; serials don't)
        std::vector<std::uint8_t> rbuf;  // unparsed inbound bytes
        std::size_t rpos = 0;            // parse offset into rbuf
        std::deque<std::vector<std::uint8_t>> frames;  // complete frames awaiting dispatch
        std::vector<std::uint8_t> wbuf;  // outbound bytes not yet accepted by the kernel
        std::size_t wpos = 0;
        bool busy = false;         // a generate_async is in flight
        bool want_write = false;   // EPOLLOUT armed
        bool paused = false;       // EPOLLIN dropped (backpressure; see interest())
        bool peer_closed = false;  // EOF seen; reap once in-flight work resolves
        std::uint32_t armed = 0;   // events mask currently registered with epoll
        Clock::time_point last_active;
    };

    std::uint32_t interest(const Conn& c) const {
        std::uint32_t ev = 0;
        // Backpressure: while paused, bytes park in the kernel socket buffer
        // and TCP flow control pushes back on the peer. Once EOF was seen
        // there is nothing left to read either — dropping the read-side mask
        // also stops a level-triggered EOF from re-waking a busy connection
        // every tick.
        if (!c.paused && !c.peer_closed) ev |= EPOLLIN | EPOLLRDHUP;
        if (c.want_write) ev |= EPOLLOUT;
        return ev;
    }

    // Recomputes the pause state from the backpressure caps and re-arms the
    // epoll mask when it changed. Level-triggered epoll re-fires on re-arm,
    // so readable bytes that arrived while paused are not lost.
    void update_interest(int fd, Conn& c) {
        c.paused = c.busy || c.frames.size() >= kMaxQueuedFrames ||
                   c.rbuf.size() - c.rpos >= kMaxBufferedReadBytes;
        const std::uint32_t ev = interest(c);
        if (ev != c.armed) {
            c.armed = ev;
            epoll_.mod(fd, ev);
        }
    }

    void add_conn(int fd) {
        util::set_nonblocking(fd);
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        Conn& c = conns_[fd];
        c.serial = next_serial_++;
        c.last_active = Clock::now();
        serial_to_fd_[c.serial] = fd;
        c.armed = interest(c);
        epoll_.add(fd, c.armed);
    }

    void close_conn(int fd) {
        const auto it = conns_.find(fd);
        if (it == conns_.end()) return;
        serial_to_fd_.erase(it->second.serial);
        if (it->second.busy) --busy_count_;  // its completion will be discarded on arrival
        epoll_.del(fd);
        ::close(fd);
        conns_.erase(it);
    }

    // Appends `bytes` to the connection's write buffer and pushes as much as
    // the kernel will take; arms EPOLLOUT for the rest. Returns false when
    // the connection died on the way out (already closed).
    bool queue_write(int fd, Conn& c, const std::vector<std::uint8_t>& payload) {
        // Frame header + payload land in wbuf as one contiguous write stream,
        // so a partial send resumes mid-frame transparently.
        std::uint8_t hdr[4];
        for (int i = 0; i < 4; ++i) {
            hdr[i] = static_cast<std::uint8_t>(payload.size() >> (8 * i));
        }
        c.wbuf.insert(c.wbuf.end(), hdr, hdr + 4);
        c.wbuf.insert(c.wbuf.end(), payload.begin(), payload.end());
        return flush_writes(fd, c);
    }

    bool flush_writes(int fd, Conn& c) {
        while (c.wpos < c.wbuf.size()) {
            const ssize_t n = ::send(fd, c.wbuf.data() + c.wpos, c.wbuf.size() - c.wpos,
                                     MSG_NOSIGNAL);
            if (n > 0) {
                c.wpos += static_cast<std::size_t>(n);
                continue;
            }
            if (n < 0 && errno == EINTR) continue;
            if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
                if (!c.want_write) {
                    c.want_write = true;
                    update_interest(fd, c);
                }
                return true;  // kernel buffer full; resume on EPOLLOUT
            }
            close_conn(fd);  // EPIPE/ECONNRESET: peer is gone
            return false;
        }
        c.wbuf.clear();
        c.wpos = 0;
        if (c.want_write) {
            c.want_write = false;
            update_interest(fd, c);
        }
        return true;
    }

    // Slices complete frames out of rbuf into c.frames. Returns false on a
    // malformed length (connection must be dropped).
    bool parse_frames(Conn& c) {
        for (;;) {
            const std::size_t avail = c.rbuf.size() - c.rpos;
            if (avail < 4) break;
            std::uint32_t len = 0;
            for (int i = 0; i < 4; ++i) {
                len |= static_cast<std::uint32_t>(c.rbuf[c.rpos + i]) << (8 * i);
            }
            if (len == 0 || len > kMaxFrameBytes) return false;
            if (avail < 4u + len) break;  // partial frame: resume on the next EPOLLIN
            const auto* base = c.rbuf.data() + c.rpos + 4;
            c.frames.emplace_back(base, base + len);
            c.rpos += 4u + len;
        }
        if (c.rpos > 0) {
            c.rbuf.erase(c.rbuf.begin(), c.rbuf.begin() + static_cast<std::ptrdiff_t>(c.rpos));
            c.rpos = 0;
        }
        return true;
    }

    // Runs queued frames in order until one goes async (generate) or the
    // queue empties. Returns false when the connection was closed.
    bool dispatch(int fd, Conn& c) {
        // Drain contract: once the worker is stopping, in-flight generates
        // finish and flush but queued or newly read frames never start.
        if (draining_) return true;
        while (!c.busy && !c.frames.empty()) {
            std::vector<std::uint8_t> frame = std::move(c.frames.front());
            c.frames.pop_front();
            try {
                switch (peek_type(frame)) {
                    case MsgType::kStatsRequest: {
                        if (!queue_write(fd, c, encode_stats_response(service_.stats_json())))
                            return false;
                        break;
                    }
                    case MsgType::kHealthRequest: {
                        if (!queue_write(fd, c, encode_health_response(service_.health())))
                            return false;
                        break;
                    }
                    case MsgType::kGenerateRequest: {
                        const GenerateRequest req = decode_generate_request(frame);
                        c.busy = true;
                        ++busy_count_;
                        // The callback may run on an engine thread or
                        // synchronously right here; either way it only
                        // touches the mailbox, never Conn state.
                        auto mail = mail_;
                        const std::uint64_t serial = c.serial;
                        service_.generate_async(req, [mail, serial](GenerateResponse&& resp) {
                            {
                                util::LockGuard lk(mail->mu);
                                mail->done.emplace_back(serial, std::move(resp));
                            }
                            mail->wake.notify();
                        });
                        break;
                    }
                    default:
                        // Response-typed frame from a client: protocol abuse.
                        close_conn(fd);
                        return false;
                }
            } catch (const std::exception&) {
                // Malformed payload: drop the connection. The daemon must
                // outlive misbehaving clients.
                close_conn(fd);
                return false;
            }
        }
        return true;
    }

    void handle_readable(int fd, Conn& c) {
        std::uint8_t chunk[kReadChunk];
        for (int reads = 0; reads < kMaxReadsPerEvent;) {
            const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
            if (n > 0) {
                c.rbuf.insert(c.rbuf.end(), chunk, chunk + n);
                if (static_cast<std::size_t>(n) < sizeof(chunk)) break;
                ++reads;  // full chunk: more may be waiting, but bounded per event
                continue;
            }
            if (n == 0) {
                c.peer_closed = true;
                break;
            }
            if (errno == EINTR) continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK) break;
            close_conn(fd);  // hard receive error
            return;
        }
        c.last_active = Clock::now();
        if (!parse_frames(c)) {
            close_conn(fd);
            return;
        }
        if (!dispatch(fd, c)) return;
        // EOF with nothing left to do: reap now. A busy connection stays
        // until its completion arrives (response is then discarded).
        if (c.peer_closed && !c.busy && c.wpos >= c.wbuf.size()) {
            close_conn(fd);
            return;
        }
        update_interest(fd, c);
    }

    void handle_event(int fd, std::uint32_t events) {
        auto it = conns_.find(fd);
        if (it == conns_.end()) return;  // closed earlier this batch
        Conn& c = it->second;
        if (events & (EPOLLERR | EPOLLHUP)) {
            // Error/hangup with no readable data left: the peer is gone.
            if (!(events & EPOLLIN)) {
                close_conn(fd);
                return;
            }
        }
        if (events & EPOLLOUT) {
            if (!flush_writes(fd, c)) return;
            // A response just drained; the next queued frame can go.
            if (!dispatch(fd, c)) return;
            if (c.peer_closed && !c.busy && c.wpos >= c.wbuf.size()) {
                close_conn(fd);
                return;
            }
            update_interest(fd, c);
        }
        if (events & (EPOLLIN | EPOLLRDHUP)) handle_readable(fd, c);
    }

    void deliver(std::uint64_t serial, GenerateResponse&& resp) {
        const auto sit = serial_to_fd_.find(serial);
        if (sit == serial_to_fd_.end()) return;  // connection died mid-generate
        const int fd = sit->second;
        Conn& c = conns_.at(fd);
        c.busy = false;
        --busy_count_;
        c.last_active = Clock::now();
        if (c.peer_closed) {
            // Nobody is waiting for these bytes.
            close_conn(fd);
            return;
        }
        if (!queue_write(fd, c, encode_generate_response(resp))) return;
        if (!dispatch(fd, c)) return;
        // The generate that paused reading is done: resume (unless dispatch
        // immediately started the next one).
        update_interest(fd, c);
    }

    void sweep_idle(const Clock::time_point& now) {
        if (opts_.idle_timeout_ms <= 0) return;
        const auto limit = std::chrono::milliseconds(opts_.idle_timeout_ms);
        std::vector<int> victims;
        for (const auto& [fd, c] : conns_) {
            if (!c.busy && c.wpos >= c.wbuf.size() && now - c.last_active > limit) {
                victims.push_back(fd);
            }
        }
        for (const int fd : victims) close_conn(fd);
    }

    void run() {
        epoll_.add(mail_->wake.fd(), EPOLLIN);
        std::vector<epoll_event> events(128);
        bool stopping = false;
        Clock::time_point drain_deadline{};
        for (;;) {
            const int n =
                epoll_.wait(events.data(), static_cast<int>(events.size()), opts_.tick_ms);
            for (int i = 0; i < n; ++i) {
                const int fd = events[i].data.fd;
                if (fd == mail_->wake.fd()) {
                    mail_->wake.drain();
                    continue;
                }
                handle_event(fd, events[i].events);
            }
            // Drain the mailbox: adopt new sockets, deliver completions.
            std::vector<int> incoming;
            std::vector<std::pair<std::uint64_t, GenerateResponse>> done;
            {
                util::LockGuard lk(mail_->mu);
                incoming.swap(mail_->incoming);
                done.swap(mail_->done);
                if (mail_->stopping && !stopping) {
                    stopping = true;
                    draining_ = true;  // gates dispatch(): no new frames start
                    drain_deadline = Clock::now() + std::chrono::milliseconds(
                                                        opts_.drain_timeout_ms);
                }
            }
            for (auto& [serial, resp] : done) deliver(serial, std::move(resp));
            const auto now = Clock::now();
            if (!stopping) {
                for (const int fd : incoming) add_conn(fd);
                sweep_idle(now);
                continue;
            }
            // Draining: no new sockets, and dispatch() is gated on
            // draining_, so queued or newly read frames never start — only
            // the generates already in flight finish and flush. Queued
            // frames that never started are dropped with the connection.
            for (const int fd : incoming) ::close(fd);
            bool flushed = true;
            for (const auto& [fd, c] : conns_) {
                if (c.busy || c.wpos < c.wbuf.size()) {
                    flushed = false;
                    break;
                }
            }
            if ((busy_count_ == 0 && flushed) || now >= drain_deadline) {
                if (!flushed || busy_count_ != 0) {
                    util::warnf("serve: epoll worker drain deadline hit with %zu busy conns",
                                busy_count_);
                }
                std::vector<int> fds;
                fds.reserve(conns_.size());
                for (const auto& [fd, c] : conns_) fds.push_back(fd);
                for (const int fd : fds) close_conn(fd);
                // Sockets the acceptor handed over after this iteration's
                // mailbox swap are closed by adopt() itself (it sees
                // stopping); sweep anything that raced in regardless.
                util::LockGuard lk(mail_->mu);
                for (const int ifd : mail_->incoming) ::close(ifd);
                mail_->incoming.clear();
                return;
            }
        }
    }

    Service& service_;
    Options opts_;
    std::shared_ptr<Mailbox> mail_;

    // Worker-thread-only state (see the confinement note above the class).
    util::Epoll epoll_;
    std::map<int, Conn> conns_;
    std::map<std::uint64_t, int> serial_to_fd_;
    std::uint64_t next_serial_ = 1;
    std::size_t busy_count_ = 0;
    bool draining_ = false;  // set once stopping is observed; gates dispatch()

    std::thread thread_;  // last member: starts after every field it reads
};

// ---- TcpServer -------------------------------------------------------------

TcpServer::TcpServer(Service& service, const std::string& host, std::uint16_t port)
    : TcpServer(service, host, port, Options()) {}

TcpServer::TcpServer(Service& service, const std::string& host, std::uint16_t port,
                     Options opts)
    : service_(service), opts_(opts) {
    if (opts_.workers == 0) opts_.workers = 1;
    if (opts_.tick_ms <= 0) opts_.tick_ms = 200;
    {
        util::LockGuard lk(mu_);
        listen_fd_ = net::listen_socket(host, port, /*backlog=*/512, &port_);
    }
    workers_.reserve(opts_.workers);
    for (std::size_t i = 0; i < opts_.workers; ++i) {
        workers_.push_back(std::make_unique<Worker>(service_, opts_));
    }
}

TcpServer::~TcpServer() {
    stop();
    join_workers();
    util::LockGuard lk(mu_);
    if (listen_fd_ >= 0) {
        ::close(listen_fd_);
        listen_fd_ = -1;
    }
}

void TcpServer::serve_forever(const std::function<bool()>& interrupt) {
    int lfd = -1;
    {
        util::LockGuard lk(mu_);
        lfd = listen_fd_;
    }
    // Nonblocking so the accept-everything loop below stops at EAGAIN rather
    // than parking this thread past the next stop/interrupt check.
    util::set_nonblocking(lfd);
    util::Epoll accept_epoll;
    accept_epoll.add(lfd, EPOLLIN);
    epoll_event ev{};
    std::size_t next_worker = 0;
    Clock::time_point last_accept_warn{};
    for (;;) {
        {
            util::LockGuard lk(mu_);
            if (stopping_) break;
        }
        const int n = accept_epoll.wait(&ev, 1, opts_.tick_ms);
        if (interrupt && interrupt()) break;
        if (n == 0) continue;
        for (;;) {  // accept everything that is ready
            const int fd = ::accept4(lfd, nullptr, nullptr, SOCK_CLOEXEC);
            if (fd < 0) {
                if (errno == EINTR) continue;
                if (errno == EAGAIN || errno == EWOULDBLOCK || errno == ECONNABORTED) break;
                // Transient resource exhaustion (EMFILE and friends): drop
                // this readiness batch rather than killing the daemon. The
                // level-triggered listen fd would re-wake us instantly and
                // re-fail, so back off for a tick and rate-limit the log
                // line instead of busy-spinning until fds free up.
                const auto now = Clock::now();
                if (now - last_accept_warn >= std::chrono::seconds(1)) {
                    util::warnf("serve: accept failed: %s (backing off %d ms)",
                                std::strerror(errno), opts_.tick_ms);
                    last_accept_warn = now;
                }
                std::this_thread::sleep_for(std::chrono::milliseconds(opts_.tick_ms));
                break;
            }
            workers_[next_worker]->adopt(fd);
            next_worker = (next_worker + 1) % workers_.size();
        }
    }
    stop();
    join_workers();
}

void TcpServer::stop() {
    {
        util::LockGuard lk(mu_);
        if (stopping_) return;
        stopping_ = true;
    }
    for (auto& w : workers_) w->begin_stop();
}

void TcpServer::join_workers() {
    {
        util::LockGuard lk(mu_);
        if (workers_joined_) return;
        workers_joined_ = true;
    }
    for (auto& w : workers_) w->join();
}

}  // namespace cpt::serve
