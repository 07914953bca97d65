#include "router.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <set>
#include <stdexcept>
#include <utility>

#include "net.hpp"
#include "util/ascii.hpp"
#include "util/check.hpp"
#include "util/log.hpp"

namespace cpt::serve {

namespace {

using Clock = std::chrono::steady_clock;

std::string slice_key(trace::DeviceType device, int hour) {
    return std::string(trace::to_string(device)) + "/h" + std::to_string(hour);
}

// A ring position: fnv1a64 finished with splitmix64's finaliser. Raw FNV-1a
// keeps keys that differ only in a trailing digit ("phone/h10", "phone/h11")
// close on the circle, so a family of slice keys lands on one arc and one
// backend; the finaliser lets every input bit move every output bit.
std::uint64_t ring_point(std::string_view s) {
    std::uint64_t z = fnv1a64(s) + 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

}  // namespace

// ---- hashing & routing (pure) ----------------------------------------------

std::uint64_t fnv1a64(std::string_view s) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : s) {
        h ^= static_cast<std::uint8_t>(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

HashRing::HashRing(std::size_t vnodes) : vnodes_(vnodes == 0 ? 1 : vnodes) {}

void HashRing::add(const std::string& node) {
    if (contains(node)) return;
    for (std::size_t i = 0; i < vnodes_; ++i) {
        points_.emplace(ring_point(node + "#" + std::to_string(i)), node);
    }
    ++node_count_;
}

void HashRing::remove(const std::string& node) {
    if (!contains(node)) return;
    for (auto it = points_.begin(); it != points_.end();) {
        if (it->second == node) {
            it = points_.erase(it);
        } else {
            ++it;
        }
    }
    --node_count_;
}

bool HashRing::contains(const std::string& node) const {
    for (const auto& [point, n] : points_) {
        if (n == node) return true;
    }
    return false;
}

std::string HashRing::owner(std::string_view key) const {
    const auto v = owners(key, 1);
    return v.empty() ? std::string() : v.front();
}

std::vector<std::string> HashRing::owners(std::string_view key, std::size_t n) const {
    std::vector<std::string> out;
    if (points_.empty() || n == 0) return out;
    const std::uint64_t h = ring_point(key);
    auto it = points_.lower_bound(h);
    // Walk clockwise (wrapping) collecting distinct nodes.
    for (std::size_t steps = 0; steps < points_.size() && out.size() < n; ++steps) {
        if (it == points_.end()) it = points_.begin();
        if (std::find(out.begin(), out.end(), it->second) == out.end()) {
            out.push_back(it->second);
        }
        ++it;
    }
    return out;
}

std::size_t plan_route(const std::vector<RouteCandidate>& candidates,
                       std::size_t spill_threshold) {
    std::size_t first_available = candidates.size();
    for (std::size_t i = 0; i < candidates.size(); ++i) {
        if (candidates[i].available) {
            first_available = i;
            break;
        }
    }
    if (first_available == candidates.size()) return first_available;
    if (first_available != 0 || candidates[0].slice_inflight < spill_threshold) {
        return first_available;
    }
    // Primary is hot: spill to the least-loaded later candidate if one is
    // strictly better; otherwise the primary still wins (a uniformly hot
    // slice should not ping-pong).
    std::size_t best = first_available;
    for (std::size_t i = 1; i < candidates.size(); ++i) {
        if (candidates[i].available &&
            candidates[i].slice_inflight < candidates[best].slice_inflight) {
            best = i;
        }
    }
    return best;
}

// ---- Router ----------------------------------------------------------------

Router::Router(RouterConfig config) : config_(std::move(config)), ring_(config_.vnodes) {
    CPT_CHECK(!config_.backends.empty(), "serve::Router: no backends configured");
    if (config_.forwarders == 0) config_.forwarders = 1;
    if (config_.replicas == 0) config_.replicas = 1;
    start_ns_ = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
            .count());
    {
        util::LockGuard lk(mu_);
        for (const auto& name : config_.backends) {
            const auto colon = name.rfind(':');
            if (colon == std::string::npos || colon == 0 || colon + 1 == name.size()) {
                throw std::runtime_error("serve::Router: backend '" + name +
                                         "' is not host:port");
            }
            Backend b;
            b.name = name;
            b.host = name.substr(0, colon);
            int port = 0;
            try {
                port = std::stoi(name.substr(colon + 1));
            } catch (const std::exception&) {
                port = -1;
            }
            if (port <= 0 || port > 65535) {
                throw std::runtime_error("serve::Router: backend '" + name +
                                         "' has a bad port");
            }
            b.port = static_cast<std::uint16_t>(port);
            // Reject hostnames/bad literals now rather than at forward time:
            // TcpClient only connects to IPv4 literals, and a config error
            // should fail fast instead of surfacing per-request.
            try {
                (void)net::make_addr(b.host, b.port);
            } catch (const std::exception& e) {
                throw std::runtime_error("serve::Router: backend '" + name +
                                         "': " + e.what() +
                                         " (IPv4 literals only)");
            }
            // Optimistically up: the first probe pass (below) corrects this,
            // and a down backend in the ring just fails over to the next
            // candidate until the probe removes it.
            b.up = true;
            ring_.add(name);
            backends_.emplace(name, std::move(b));
        }
    }
    check_backends_now();
    forwarders_.reserve(config_.forwarders);
    for (std::size_t i = 0; i < config_.forwarders; ++i) {
        forwarders_.emplace_back([this] { forwarder_loop(); });
    }
    health_thread_ = std::thread([this] { health_loop(); });
}

Router::~Router() { drain(); }

void Router::generate_async(const GenerateRequest& request, Done done) {
    GenerateResponse reject;
    bool rejected = false;
    {
        util::LockGuard lk(mu_);
        if (stopping_) {
            reject = {Status::kShuttingDown, "router is draining", {}};
            rejected = true;
        } else if (queue_.size() >= config_.queue_capacity) {
            reject = {Status::kQueueFull,
                      "router queue at capacity (" + std::to_string(config_.queue_capacity) +
                          ")",
                      {}};
            rejected = true;
        } else {
            queue_.push_back(Job{request, std::move(done)});
        }
    }
    if (rejected) {
        done(std::move(reject));
        return;
    }
    work_cv_.notify_all();
}

void Router::forwarder_loop() {
    for (;;) {
        Job job;
        {
            util::LockGuard lk(mu_);
            while (!stopping_ && queue_.empty()) work_cv_.wait(mu_);
            if (queue_.empty()) return;  // stopping with nothing left
            job = std::move(queue_.front());
            queue_.pop_front();
            ++active_forwards_;
        }
        forward(std::move(job));
        {
            util::LockGuard lk(mu_);
            --active_forwards_;
        }
        idle_cv_.notify_all();
    }
}

GenerateResponse Router::roundtrip(const std::string& name, const std::string& host,
                                   std::uint16_t port, const GenerateRequest& req) {
    TcpClient client(host, port);
    if (config_.io_timeout_ms > 0) {
        client.set_io_timeout(std::chrono::milliseconds(config_.io_timeout_ms));
    }
    (void)name;
    return client.generate(req);
}

void Router::forward(Job&& job) {
    const std::string slice = slice_key(job.req.device, job.req.hour_of_day);
    const util::Backoff backoff(config_.retry);
    std::set<std::string> tried;
    std::string last_error = "no backend available";
    bool failed_over = false;
    for (int attempt = 0;; ++attempt) {
        std::string name;
        std::string host;
        std::uint16_t port = 0;
        {
            util::LockGuard lk(mu_);
            const std::vector<std::string> cands = ring_.owners(slice, config_.replicas);
            std::vector<RouteCandidate> rcs;
            rcs.reserve(cands.size());
            for (const auto& c : cands) {
                const Backend& b = backends_.at(c);
                const auto sit = b.slice_inflight.find(slice);
                rcs.push_back(RouteCandidate{
                    b.up && !b.draining && tried.count(c) == 0,
                    sit == b.slice_inflight.end() ? 0 : sit->second});
            }
            const std::size_t pick = plan_route(rcs, config_.spill_threshold);
            if (pick < cands.size()) {
                if (pick != 0 && rcs[0].available) ++spills_;
                name = cands[pick];
                Backend& b = backends_.at(name);
                host = b.host;
                port = b.port;
                ++b.inflight;
                ++b.slice_inflight[slice];
            }
        }
        if (name.empty()) {
            // Every candidate is down, draining, or already tried. One last
            // hope: if nothing was tried yet the whole ring is down — fail
            // fast; otherwise we exhausted failover.
            util::LockGuard lk(mu_);
            ++upstream_errors_;
            break;
        }
        bool retriable = false;
        GenerateResponse resp;
        bool have_resp = false;
        try {
            resp = roundtrip(name, host, port, job.req);
            have_resp = true;
        } catch (const TransportError& e) {
            last_error = e.what();
            util::LockGuard lk(mu_);
            Backend& b = backends_.at(name);
            if (e.kind() == TransportError::Kind::kConnectRefused) {
                // Unambiguous: nothing is listening. Take it out of the ring
                // immediately instead of waiting for the probe threshold.
                if (b.up) {
                    b.up = false;
                    b.consecutive_failures = config_.down_after_failures;
                    ring_.remove(name);
                    util::warnf("router: backend %s down (connection refused)",
                                name.c_str());
                }
            } else {
                ++b.consecutive_failures;
            }
            // Safe to retry only when zero response bytes arrived.
            retriable = !e.response_started();
        } catch (const std::exception& e) {
            // Anything non-transport (a decoder bug, an allocation failure)
            // must not unwind through the forwarder thread — that would
            // std::terminate the whole router and leak the backend's
            // inflight counters. Record it as a non-retriable upstream
            // failure instead.
            last_error = "backend " + name + ": " + e.what();
            retriable = false;
            util::LockGuard lk(mu_);
            ++backends_.at(name).consecutive_failures;
        }
        {
            util::LockGuard lk(mu_);
            Backend& b = backends_.at(name);
            --b.inflight;
            const auto sit = b.slice_inflight.find(slice);
            if (sit != b.slice_inflight.end() && --sit->second == 0) {
                b.slice_inflight.erase(sit);
            }
            if (have_resp) {
                // A backend that says it is draining or full is healthy at
                // the transport level but can't take this request — fail
                // over to the next candidate without marking it down.
                if (resp.status == Status::kShuttingDown ||
                    resp.status == Status::kQueueFull) {
                    if (resp.status == Status::kShuttingDown) b.draining = true;
                    last_error = "backend " + name + ": " + status_name(resp.status);
                    retriable = true;
                    have_resp = false;
                } else {
                    ++b.forwarded;
                    b.consecutive_failures = 0;
                    ++requests_done_;
                    if (failed_over) ++failovers_;
                }
            }
        }
        if (have_resp) {
            job.done(std::move(resp));
            return;
        }
        if (!retriable) {
            util::LockGuard lk(mu_);
            ++upstream_errors_;
            last_error = "backend " + name + " failed mid-response: " + last_error;
            break;
        }
        tried.insert(name);
        failed_over = true;
        if (!backoff.should_retry(attempt)) {
            util::LockGuard lk(mu_);
            ++upstream_errors_;
            break;
        }
        backoff.sleep(attempt);
    }
    job.done({Status::kUpstream, last_error, {}});
}

void Router::probe(const std::string& name) {
    std::string host;
    std::uint16_t port = 0;
    {
        util::LockGuard lk(mu_);
        const Backend& b = backends_.at(name);
        host = b.host;
        port = b.port;
    }
    bool ok = false;
    HealthInfo info;
    try {
        TcpClient client(host, port);
        client.set_io_timeout(std::chrono::milliseconds(config_.health_timeout_ms));
        info = client.health();
        ok = info.ok || info.draining;  // draining is alive, just not admitting
    } catch (const std::exception&) {
        ok = false;
    }
    util::LockGuard lk(mu_);
    Backend& b = backends_.at(name);
    if (ok) {
        b.consecutive_failures = 0;
        b.last_health = info;
        b.draining = info.draining;
        if (!b.up) {
            b.up = true;
            ring_.add(name);
            util::info("router: backend " + name + " up");
        }
    } else {
        ++b.probe_failures;
        ++b.consecutive_failures;
        if (b.up && b.consecutive_failures >= config_.down_after_failures) {
            b.up = false;
            ring_.remove(name);
            util::warnf("router: backend %s down after %d failed probes", name.c_str(),
                        b.consecutive_failures);
        }
    }
}

void Router::check_backends_now() {
    std::vector<std::string> names;
    {
        util::LockGuard lk(mu_);
        names.reserve(backends_.size());
        for (const auto& [name, b] : backends_) names.push_back(name);
    }
    for (const auto& name : names) probe(name);
}

void Router::health_loop() {
    for (;;) {
        {
            util::LockGuard lk(mu_);
            if (!stopping_) {
                health_cv_.wait_for(mu_, std::chrono::milliseconds(config_.health_interval_ms));
            }
            if (stopping_) return;
        }
        check_backends_now();
    }
}

void Router::drain() {
    {
        util::LockGuard lk(mu_);
        stopping_ = true;
    }
    work_cv_.notify_all();
    health_cv_.notify_all();
    {
        util::LockGuard lk(mu_);
        while (!queue_.empty() || active_forwards_ > 0) idle_cv_.wait(mu_);
    }
    for (auto& t : forwarders_) {
        if (t.joinable()) t.join();
    }
    if (health_thread_.joinable()) health_thread_.join();
}

std::string Router::owner_of(trace::DeviceType device, int hour) const {
    util::LockGuard lk(mu_);
    return ring_.owner(slice_key(device, hour));
}

HealthInfo Router::health() const {
    HealthInfo h;
    {
        util::LockGuard lk(mu_);
        std::uint32_t up = 0;
        for (const auto& [name, b] : backends_) {
            if (b.up) ++up;
            h.streams_done += b.last_health.streams_done;
        }
        h.engines = up;
        h.draining = stopping_;
        h.ok = up > 0 && !stopping_;
        h.active_requests =
            static_cast<std::uint32_t>(queue_.size() + active_forwards_);
    }
    const auto now_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
            .count());
    h.uptime_seconds = static_cast<double>(now_ns - start_ns_) * 1e-9;
    return h;
}

std::string Router::stats_json() const {
    util::LockGuard lk(mu_);
    std::string json = "{\n  \"backends\": [";
    bool first = true;
    for (const auto& [name, b] : backends_) {
        util::appendf(json,
                      "%s\n    {\"name\": \"%s\", \"up\": %s, \"draining\": %s, "
                      "\"inflight\": %zu, \"forwarded\": %llu, \"probe_failures\": %llu}",
                      first ? "" : ",", util::json_escape(name).c_str(), b.up ? "true" : "false",
                      b.draining ? "true" : "false", b.inflight,
                      static_cast<unsigned long long>(b.forwarded),
                      static_cast<unsigned long long>(b.probe_failures));
        first = false;
    }
    util::appendf(json,
                  "\n  ],\n  \"queue_depth\": %zu,\n"
                  "  \"requests\": {\"completed\": %llu, \"failovers\": %llu, "
                  "\"spills\": %llu, \"upstream_errors\": %llu}\n}",
                  queue_.size(), static_cast<unsigned long long>(requests_done_),
                  static_cast<unsigned long long>(failovers_),
                  static_cast<unsigned long long>(spills_),
                  static_cast<unsigned long long>(upstream_errors_));
    return json;
}

}  // namespace cpt::serve
