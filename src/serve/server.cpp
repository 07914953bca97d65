#include "server.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>
#include <limits>
#include <thread>

#include "core/sampler.hpp"
#include "util/ascii.hpp"
#include "util/check.hpp"
#include "util/stats.hpp"
#include "util/sync.hpp"

namespace cpt::serve {

namespace {

using Clock = std::chrono::steady_clock;

// Ticket layout: request serial in the high bits, stream index in the low 20,
// which bounds a request's stream count.
constexpr std::uint64_t kStreamIndexBits = 20;
constexpr std::uint64_t kStreamIndexMask = (1ULL << kStreamIndexBits) - 1;
constexpr std::size_t kMaxRequestStreams = kStreamIndexMask + 1;

std::string slice_name(trace::DeviceType device, int hour) {
    return std::string(trace::to_string(device)) + "/h" + std::to_string(hour);
}

}  // namespace

// ---- Engine: one slice's continuous-batching worker ------------------------

class Server::Engine {
public:
    Engine(const ServeConfig& cfg, core::CptGpt::Package pkg, trace::DeviceType device,
           int hour)
        : cfg_(&cfg),
          device_(device),
          hour_(hour),
          pkg_(std::move(pkg)),
          sampler_(*pkg_.model, pkg_.tokenizer, pkg_.initial_event_dist,
                   make_sampler_config(cfg, device, hour)),
          server_rng_(cfg.server_seed ^ (static_cast<std::uint64_t>(device) * 24 + hour)),
          worker_([this] { run(); }) {}

    ~Engine() { stop_and_join(); }

    // Non-blocking submit: `done` fires from the engine worker when the
    // request completes or expires, or synchronously here when it is rejected
    // before admission. The callback never runs under mu_.
    void submit_async(const GenerateRequest& req, Service::Done done) CPT_EXCLUDES(mu_) {
        GenerateResponse reject;
        bool rejected = false;
        {
            util::LockGuard lk(mu_);
            if (stop_) {
                reject = {Status::kShuttingDown, "server is draining", {}};
                rejected = true;
            } else if (queue_.size() + inflight_.size() >= cfg_->queue_capacity) {
                ++requests_rejected_;
                reject = {Status::kQueueFull,
                          "admission queue at capacity (" +
                              std::to_string(cfg_->queue_capacity) + ")",
                          {}};
                rejected = true;
            } else {
                auto rq = std::make_shared<Request>();
                rq->req = req;
                rq->serial = next_serial_++;
                rq->submitted = Clock::now();
                const std::uint32_t deadline_ms =
                    req.deadline_ms != 0 ? req.deadline_ms : cfg_->default_deadline_ms;
                rq->deadline = rq->submitted + std::chrono::milliseconds(deadline_ms);
                rq->deterministic = cfg_->deterministic || req.deterministic;
                rq->base_rng = util::Rng(req.seed);
                rq->callback = std::move(done);
                queue_.push_back(std::move(rq));
            }
        }
        if (rejected) {
            done(std::move(reject));
            return;
        }
        cv_.notify_one();
    }

    void stop_and_join() CPT_EXCLUDES(mu_) {
        {
            util::LockGuard lk(mu_);
            if (stop_ && !worker_.joinable()) return;
            stop_ = true;
        }
        cv_.notify_one();
        if (worker_.joinable()) worker_.join();
    }

    using StatsSnapshot = Server::SliceStats;

    StatsSnapshot stats() const CPT_EXCLUDES(mu_) {
        util::LockGuard lk(mu_);
        StatsSnapshot s;
        s.device = device_;
        s.hour = hour_;
        s.decode_seconds = times_.decode;
        s.steps = times_.steps;
        s.streams = streams_done_;
        s.tokens = tokens_done_;
        s.requests_done = requests_done_;
        s.requests_timeout = requests_timeout_;
        s.requests_rejected = requests_rejected_;
        s.queue_depth = queue_.size() + inflight_.size();
        s.latency = latency_;
        return s;
    }

private:
    struct Request {
        GenerateRequest req;
        std::uint64_t serial = 0;
        Clock::time_point submitted;
        Clock::time_point deadline;
        bool deterministic = false;
        util::Rng base_rng{1};
        std::size_t admitted = 0;     // streams admitted into slots so far
        std::size_t outstanding = 0;  // admitted but neither finished nor evicted
        std::vector<std::pair<std::size_t, trace::Stream>> done;  // (index, stream)
        Service::Done callback;
    };
    using RequestPtr = std::shared_ptr<Request>;

    // A completion staged under mu_ and fired after the lock is released (a
    // callback may re-enter the service or block; neither is safe under mu_).
    struct Fire {
        Service::Done callback;
        GenerateResponse resp;
    };

    static core::SamplerConfig make_sampler_config(const ServeConfig& cfg,
                                                   trace::DeviceType device, int hour) {
        core::SamplerConfig sc;
        sc.batch = cfg.slot_capacity;
        sc.device = device;
        sc.hour_of_day = hour;
        sc.max_stream_len = std::min<std::size_t>(500, cfg.model.max_seq_len);
        return sc;
    }

    // Completes a request: sorts its streams back into submission order and
    // stages the callback on fire_ (invoked by run() after mu_ is released).
    // Caller holds mu_ and has already detached the request from
    // queue_/inflight_.
    void complete_locked(const RequestPtr& rq, Status status, const std::string& error)
        CPT_REQUIRES(mu_) {
        std::sort(rq->done.begin(), rq->done.end(),
                  [](const auto& a, const auto& b) { return a.first < b.first; });
        GenerateResponse resp;
        resp.status = status;
        resp.error = error;
        resp.streams.reserve(rq->done.size());
        for (auto& [idx, stream] : rq->done) resp.streams.push_back(std::move(stream));
        if (status == Status::kOk) {
            ++requests_done_;
            latency_.record(std::chrono::duration<double>(Clock::now() - rq->submitted).count());
        } else {
            ++requests_timeout_;
        }
        fire_.push_back(Fire{std::move(rq->callback), std::move(resp)});
    }

    // Evicts expired requests (queued and in-flight) at a step boundary.
    void expire_locked(core::Sampler::SlotBatch& batch, const Clock::time_point& now,
                       std::vector<core::Sampler::SlotBatch::Finished>& scratch)
        CPT_REQUIRES(mu_) {
        // Collect expired serials first so the eviction predicate is a set
        // lookup, then drop their queue entries and live slots.
        expired_.clear();
        for (const auto& rq : queue_) {
            if (now >= rq->deadline) expired_.push_back(rq);
        }
        for (const auto& [serial, rq] : inflight_) {
            if (now >= rq->deadline &&
                std::find(expired_.begin(), expired_.end(), rq) == expired_.end()) {
                expired_.push_back(rq);
            }
        }
        if (expired_.empty()) return;
        scratch.clear();
        batch.evict(
            [&](std::uint64_t ticket) {
                const std::uint64_t serial = ticket >> kStreamIndexBits;
                return std::any_of(expired_.begin(), expired_.end(),
                                   [&](const RequestPtr& rq) { return rq->serial == serial; });
            },
            scratch);
        // Evicted partials are dropped: the response only carries streams the
        // model finished before the deadline.
        for (const auto& rq : expired_) {
            queue_.erase(std::remove(queue_.begin(), queue_.end(), rq), queue_.end());
            inflight_.erase(rq->serial);
            complete_locked(rq, Status::kDeadline,
                            "deadline exceeded with " + std::to_string(rq->done.size()) +
                                "/" + std::to_string(rq->req.count) + " streams done");
        }
    }

    // Fills free slots from the head request (FIFO; stream order within a
    // request is preserved, and a single-request run admits exactly the
    // serial RNG-fork order generate_batch uses).
    void admit_locked(core::Sampler::SlotBatch& batch) CPT_REQUIRES(mu_) {
        while (batch.free_slots() > 0 && !queue_.empty()) {
            const RequestPtr& rq = queue_.front();
            core::Sampler::SlotBatch::AdmitParams params;
            if (rq->req.max_stream_len != 0) params.max_len = rq->req.max_stream_len;
            params.temperature = rq->req.temperature;
            params.top_p = rq->req.top_p;
            // Per-row KV contexts make admissible_len() an invariant equal to
            // the config cap, so a clamped max_len always fits — no need to
            // wait for the batch to drain before admitting the head stream.
            const std::size_t idx = rq->admitted;
            util::Rng rng = rq->deterministic ? rq->base_rng.fork(idx)
                                              : server_rng_.fork(stream_salt_++);
            batch.admit(std::move(rng), trace::ue_id(rq->req.ue_prefix, idx),
                        (rq->serial << kStreamIndexBits) | idx, params);
            ++rq->admitted;
            ++rq->outstanding;
            inflight_[rq->serial] = rq;
            if (rq->admitted == rq->req.count) queue_.pop_front();
        }
    }

    void deliver_locked(core::Sampler::SlotBatch::Finished&& f) CPT_REQUIRES(mu_) {
        const std::uint64_t serial = f.ticket >> kStreamIndexBits;
        const auto it = inflight_.find(serial);
        CPT_CHECK(it != inflight_.end(), "serve::Engine: finished stream for unknown request ",
                  serial);
        const RequestPtr rq = it->second;
        --rq->outstanding;
        ++streams_done_;
        tokens_done_ += f.stream.events.size();
        rq->done.emplace_back(f.ticket & kStreamIndexMask, std::move(f.stream));
        if (rq->admitted == rq->req.count && rq->outstanding == 0) {
            inflight_.erase(it);
            complete_locked(rq, Status::kOk, "");
        }
    }

    void run() CPT_EXCLUDES(mu_) {
        core::Sampler::SlotBatch batch = sampler_.make_slot_batch(cfg_->slot_capacity);
        std::vector<core::Sampler::SlotBatch::Finished> finished;
        std::vector<core::Sampler::SlotBatch::Finished> evict_scratch;
        std::vector<Fire> fire;  // completions drained from fire_, run unlocked
        for (;;) {
            bool exit_loop = false;
            bool do_step = false;
            {
                util::LockGuard lk(mu_);
                while (!stop_ && queue_.empty() && inflight_.empty()) cv_.wait(mu_);
                // Fold the batch's decode-stage clock into the stats surface
                // while the lock is held (stats() reads times_ under mu_).
                times_ = batch.stage_times();
                if (queue_.empty() && inflight_.empty()) {
                    exit_loop = stop_;
                } else {
                    expire_locked(batch, Clock::now(), evict_scratch);
                    admit_locked(batch);
                    do_step = batch.live() > 0;  // else everything expired or queue blocked
                }
                fire.swap(fire_);
            }
            for (auto& f : fire) f.callback(std::move(f.resp));
            fire.clear();
            if (exit_loop) return;
            if (!do_step) continue;
            // The decode step — the expensive part — runs without the lock;
            // the batch is touched only by this thread.
            finished.clear();
            batch.step(finished);
            if (!finished.empty()) {
                {
                    util::LockGuard lk(mu_);
                    for (auto& f : finished) deliver_locked(std::move(f));
                    fire.swap(fire_);
                }
                for (auto& f : fire) f.callback(std::move(f.resp));
                fire.clear();
            }
        }
    }

    const ServeConfig* cfg_;
    trace::DeviceType device_;
    int hour_;
    core::CptGpt::Package pkg_;
    core::Sampler sampler_;
    // Snapshot of the batch's stage clock (folded in run(), read by stats()).
    core::Sampler::StageTimes times_ CPT_GUARDED_BY(mu_);

    mutable util::Mutex mu_;
    util::CondVar cv_;
    // head is being admitted
    std::deque<RequestPtr> queue_ CPT_GUARDED_BY(mu_);
    // serial -> partially decoded
    std::map<std::uint64_t, RequestPtr> inflight_ CPT_GUARDED_BY(mu_);
    // expire_locked scratch
    std::vector<RequestPtr> expired_ CPT_GUARDED_BY(mu_);
    // completions staged by complete_locked, fired by run() outside mu_
    std::vector<Fire> fire_ CPT_GUARDED_BY(mu_);
    bool stop_ CPT_GUARDED_BY(mu_) = false;
    std::uint64_t next_serial_ CPT_GUARDED_BY(mu_) = 0;
    util::Rng server_rng_ CPT_GUARDED_BY(mu_);
    std::uint64_t stream_salt_ CPT_GUARDED_BY(mu_) = 0;

    std::uint64_t streams_done_ CPT_GUARDED_BY(mu_) = 0;
    std::uint64_t tokens_done_ CPT_GUARDED_BY(mu_) = 0;
    std::uint64_t requests_done_ CPT_GUARDED_BY(mu_) = 0;
    std::uint64_t requests_timeout_ CPT_GUARDED_BY(mu_) = 0;
    std::uint64_t requests_rejected_ CPT_GUARDED_BY(mu_) = 0;
    util::LatencyHistogram latency_ CPT_GUARDED_BY(mu_);

    std::thread worker_;  // last member: starts after every field it reads
};

// ---- Server ----------------------------------------------------------------

Server::Server(ServeConfig config) : config_(std::move(config)), hub_(config_.hub_dir) {
    CPT_CHECK_GT(config_.slot_capacity, std::size_t{0}, " serve::Server: slot_capacity");
    CPT_CHECK_GT(config_.queue_capacity, std::size_t{0}, " serve::Server: queue_capacity");
    start_ns_ = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
            .count());
}

Server::~Server() { drain(); }

Server::Engine* Server::engine_for(trace::DeviceType device, int hour,
                                   GenerateResponse* reject) {
    util::LockGuard lk(engines_mutex_);
    if (draining_) {
        *reject = {Status::kShuttingDown, "server is draining", {}};
        return nullptr;
    }
    // Resolve the slice, applying the nearest-published-hour fallback the hub
    // offers (an operator that only retrained peak hours still serves 3am).
    std::optional<int> resolved;
    if (config_.nearest_hour_fallback) {
        resolved = hub_.nearest_hour(device, hour);
    } else if (hub_.has(device, hour)) {
        resolved = hour;
    }
    if (!resolved) {
        *reject = {Status::kNoModel,
                   "no release for slice " + slice_name(device, hour) + " in hub '" +
                       hub_.directory() + "'",
                   {}};
        return nullptr;
    }
    const int serve_hour = *resolved;
    const int key = static_cast<int>(device) * 24 + serve_hour;
    auto it = engines_.find(key);
    if (it == engines_.end()) {
        it = engines_
                 .emplace(key, std::make_unique<Engine>(
                                   config_, hub_.load(device, serve_hour, config_.model),
                                   device, serve_hour))
                 .first;
    }
    return it->second.get();
}

// Validates the request and resolves its slice engine. On failure fills
// `reject` and returns nullptr.
Server::Engine* Server::route(const GenerateRequest& request, GenerateResponse* reject) {
    if (request.count == 0 || request.count > kMaxRequestStreams) {
        *reject = {Status::kBadRequest,
                   "count must be in [1, " + std::to_string(kMaxRequestStreams) + "]", {}};
        return nullptr;
    }
    if (request.hour_of_day < 0 || request.hour_of_day > 23) {
        *reject = {Status::kBadRequest, "hour_of_day must be in [0, 23]", {}};
        return nullptr;
    }
    if (static_cast<std::size_t>(request.device) >= trace::kNumDeviceTypes) {
        *reject = {Status::kBadRequest,
                   "device must be below " + std::to_string(trace::kNumDeviceTypes) + ", got " +
                       std::to_string(static_cast<unsigned>(request.device)),
                   {}};
        return nullptr;
    }
    // Negative temperature and top_p mean "slice default"; NaN is neither a
    // value nor negative, and +inf temperature would sample uniformly.
    if (std::isnan(request.temperature) ||
        request.temperature == std::numeric_limits<float>::infinity()) {
        *reject = {Status::kBadRequest, "temperature must be a number below +inf", {}};
        return nullptr;
    }
    if (std::isnan(request.top_p) || request.top_p == 0.0f || request.top_p > 1.0f) {
        *reject = {Status::kBadRequest, "top_p must be in (0, 1]", {}};
        return nullptr;
    }
    if (request.ue_prefix.size() > kMaxUePrefixBytes) {
        *reject = {Status::kBadRequest,
                   "ue_prefix must be at most " + std::to_string(kMaxUePrefixBytes) +
                       " bytes, got " + std::to_string(request.ue_prefix.size()),
                   {}};
        return nullptr;
    }
    // 0 means the engine's cap; a stream needs its start event plus one more.
    if (request.max_stream_len == 1) {
        *reject = {Status::kBadRequest, "max_stream_len must be 0 (default) or >= 2", {}};
        return nullptr;
    }
    return engine_for(request.device, request.hour_of_day, reject);
}

void Server::generate_async(const GenerateRequest& request, Done done) {
    GenerateResponse reject;
    Engine* engine = route(request, &reject);
    if (engine == nullptr) {
        done(std::move(reject));
        return;
    }
    engine->submit_async(request, std::move(done));
}

HealthInfo Server::health() const {
    HealthInfo h;
    {
        util::LockGuard lk(engines_mutex_);
        h.draining = draining_;
        h.ok = !draining_;
        h.engines = static_cast<std::uint32_t>(engines_.size());
        for (const auto& [key, engine] : engines_) {
            const auto s = engine->stats();
            h.active_requests += static_cast<std::uint32_t>(s.queue_depth);
            h.streams_done += s.streams;
        }
        for (const auto& s : drained_stats_) h.streams_done += s.streams;
    }
    const auto now_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
            .count());
    h.uptime_seconds = static_cast<double>(now_ns - start_ns_) * 1e-9;
    return h;
}

void Server::drain() {
    std::map<int, std::unique_ptr<Engine>> engines;
    {
        util::LockGuard lk(engines_mutex_);
        if (draining_ && engines_.empty()) return;
        draining_ = true;
        engines.swap(engines_);
    }
    for (auto& [key, engine] : engines) engine->stop_and_join();
    // Keep the final per-slice counters so the stats surface survives the
    // drain (the daemon prints stats_json() after SIGTERM).
    util::LockGuard lk(engines_mutex_);
    for (auto& [key, engine] : engines) drained_stats_.push_back(engine->stats());
}

std::string Server::stats_json() const {
    std::vector<Engine::StatsSnapshot> slices;
    {
        util::LockGuard lk(engines_mutex_);
        slices.reserve(engines_.size() + drained_stats_.size());
        slices = drained_stats_;
        for (const auto& [key, engine] : engines_) slices.push_back(engine->stats());
    }
    const auto now_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
            .count());
    const double uptime = static_cast<double>(now_ns - start_ns_) * 1e-9;
    const double rate_div = uptime > 0.0 ? uptime : 1.0;

    util::LatencyHistogram latency;
    std::uint64_t requests_done = 0, requests_timeout = 0, requests_rejected = 0;
    std::size_t queue_depth = 0;
    std::string json = "{\n";
    util::appendf(json, "  \"uptime_seconds\": %.3f,\n  \"slices\": [", uptime);
    for (std::size_t i = 0; i < slices.size(); ++i) {
        const auto& s = slices[i];
        latency.merge(s.latency);
        requests_done += s.requests_done;
        requests_timeout += s.requests_timeout;
        requests_rejected += s.requests_rejected;
        queue_depth += s.queue_depth;
        const double decode_ms_per_step =
            s.steps > 0 ? s.decode_seconds * 1e3 / static_cast<double>(s.steps) : 0.0;
        util::appendf(json,
                      "%s\n    {\"device\": \"%.*s\", \"hour\": %d, \"streams\": %llu, "
                      "\"tokens\": %llu, \"streams_per_sec\": %.2f, \"tokens_per_sec\": %.2f, "
                      "\"decode_ms_per_step\": %.3f, \"steps\": %llu, "
                      "\"queue_depth\": %zu}",
                      i == 0 ? "" : ",",
                      static_cast<int>(trace::to_string(s.device).size()),
                      trace::to_string(s.device).data(), s.hour,
                      static_cast<unsigned long long>(s.streams),
                      static_cast<unsigned long long>(s.tokens),
                      static_cast<double>(s.streams) / rate_div,
                      static_cast<double>(s.tokens) / rate_div, decode_ms_per_step,
                      static_cast<unsigned long long>(s.steps), s.queue_depth);
    }
    json += slices.empty() ? "],\n" : "\n  ],\n";
    const auto pct = latency.percentiles();
    util::appendf(json,
                  "  \"queue_depth\": %zu,\n"
                  "  \"requests\": {\"completed\": %llu, \"timed_out\": %llu, "
                  "\"rejected\": %llu},\n"
                  "  \"latency_seconds\": {\"count\": %zu, \"mean\": %.6f, \"p50\": %.6f, "
                  "\"p95\": %.6f, \"p99\": %.6f, \"max\": %.6f}\n}",
                  queue_depth, static_cast<unsigned long long>(requests_done),
                  static_cast<unsigned long long>(requests_timeout),
                  static_cast<unsigned long long>(requests_rejected), latency.count(),
                  latency.mean(), pct.p50, pct.p95, pct.p99, latency.max());
    return json;
}

}  // namespace cpt::serve
