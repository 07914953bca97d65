#include "loadgen.hpp"

#include <chrono>
#include <thread>
#include <vector>

#include "client.hpp"
#include "util/backoff.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/sync.hpp"

namespace cpt::serve {

namespace {

using Clock = std::chrono::steady_clock;

}  // namespace

std::vector<double> poisson_schedule(double rate, std::size_t n, std::uint64_t seed) {
    CPT_CHECK_GT(rate, 0.0, " serve::poisson_schedule: rate");
    util::Rng rng(seed);
    std::vector<double> offsets;
    offsets.reserve(n);
    double t = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        t += rng.exponential(rate);
        offsets.push_back(t);
    }
    return offsets;
}

LoadgenResult run_loadtest(const LoadgenConfig& cfg) {
    CPT_CHECK_GT(cfg.connections, std::size_t{0}, " serve::run_loadtest: connections");
    const std::vector<double> schedule =
        cfg.rate > 0.0 ? poisson_schedule(cfg.rate, cfg.requests, cfg.seed)
                       : std::vector<double>();

    struct Shared {
        util::Mutex mu;
        std::size_t next CPT_GUARDED_BY(mu) = 0;
        std::size_t ok CPT_GUARDED_BY(mu) = 0;
        std::size_t failed CPT_GUARDED_BY(mu) = 0;
        std::uint64_t streams CPT_GUARDED_BY(mu) = 0;
        util::LatencyHistogram latency CPT_GUARDED_BY(mu);
        std::string first_error CPT_GUARDED_BY(mu);
    } shared;

    const auto start = Clock::now();
    auto worker = [&cfg, &schedule, &shared, start] {
        std::unique_ptr<TcpClient> client;
        const util::Backoff reconnect({5.0, 200.0, 2.0, 3});
        for (;;) {
            std::size_t i = 0;
            {
                util::LockGuard lk(shared.mu);
                if (shared.next >= cfg.requests) return;
                i = shared.next++;
            }
            // In open-loop mode the request "arrives" at its scheduled time
            // regardless of how the previous ones fared; latency accrues
            // from that instant.
            Clock::time_point arrival = Clock::now();
            if (!schedule.empty()) {
                arrival = start + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(schedule[i]));
                std::this_thread::sleep_until(arrival);
            }
            GenerateRequest req;
            req.device = cfg.device;
            req.hour_of_day = cfg.hour_of_day;
            req.count = cfg.count;
            req.seed = cfg.seed + i;
            req.deterministic = cfg.deterministic;
            req.max_stream_len = cfg.max_stream_len;
            req.deadline_ms = cfg.deadline_ms;
            const std::string prefix = trace::ue_id(cfg.ue_prefix, i);
            req.ue_prefix = prefix;
            try {
                if (!client) client = connect_with_backoff(cfg.host, cfg.port, reconnect);
                GenerateResponse resp = client->generate(req);
                const double lat =
                    std::chrono::duration<double>(Clock::now() - arrival).count();
                util::LockGuard lk(shared.mu);
                if (resp.status == Status::kOk) {
                    ++shared.ok;
                    shared.streams += resp.streams.size();
                    shared.latency.record(lat);
                } else {
                    ++shared.failed;
                    if (shared.first_error.empty()) {
                        shared.first_error =
                            std::string(status_name(resp.status)) + ": " + resp.error;
                    }
                }
            } catch (const std::exception& e) {
                // Transport failure: drop the cached connection so the next
                // request reconnects (with backoff) instead of reusing a
                // dead socket.
                client.reset();
                util::LockGuard lk(shared.mu);
                ++shared.failed;
                if (shared.first_error.empty()) shared.first_error = e.what();
            }
        }
    };

    std::vector<std::thread> threads;
    threads.reserve(cfg.connections);
    for (std::size_t c = 0; c < cfg.connections; ++c) threads.emplace_back(worker);
    for (auto& t : threads) t.join();

    LoadgenResult result;
    result.wall_seconds = std::chrono::duration<double>(Clock::now() - start).count();
    {
        util::LockGuard lk(shared.mu);
        result.ok = shared.ok;
        result.failed = shared.failed;
        result.streams = shared.streams;
        result.latency = shared.latency;
        result.first_error = shared.first_error;
    }
    result.achieved_rps = result.wall_seconds > 0.0
                              ? static_cast<double>(result.ok) / result.wall_seconds
                              : 0.0;
    return result;
}

}  // namespace cpt::serve
