#include "thread_pool.hpp"

#include <atomic>
#include <cstdlib>
#include <exception>
#include <memory>
#include <stdexcept>
#include <thread>

#include "sync.hpp"

namespace cpt::util {

namespace {

thread_local bool tls_in_worker = false;

struct ChunkPlan {
    std::size_t chunks = 0;
    std::size_t base = 0;  // items per chunk; first `extra` chunks get one more
    std::size_t extra = 0;

    // [begin, end) of chunk c under balanced static chunking.
    std::pair<std::size_t, std::size_t> range(std::size_t c) const {
        const std::size_t begin = c * base + std::min(c, extra);
        const std::size_t len = base + (c < extra ? 1 : 0);
        return {begin, begin + len};
    }
};

ChunkPlan plan_chunks(std::size_t n, std::size_t grain, std::size_t threads) {
    ChunkPlan p;
    if (n == 0) return p;
    if (grain == 0) grain = 1;
    const std::size_t by_grain = (n + grain - 1) / grain;
    p.chunks = std::min(threads, by_grain);
    if (p.chunks == 0) p.chunks = 1;
    p.base = n / p.chunks;
    p.extra = n % p.chunks;
    return p;
}

}  // namespace

// One outstanding parallel region at a time; workers park on a condition
// variable between regions. Chunk c (c >= 1) is executed by worker c - 1 and
// chunk 0 by the caller, so assignment is static and deterministic.
struct ThreadPool::Impl {
    using RegionFn = std::function<void(std::size_t, std::size_t, std::size_t)>;

    std::vector<std::thread> workers;
    // Owned by the external (non-worker) caller driving the workers, from
    // publish() through collect(). The region state below is a single slot,
    // so a second external caller — e.g. another serve Engine sharing the
    // global pool — waits here instead of overwriting a region in flight.
    Mutex region_mu;
    Mutex mu;
    CondVar start_cv;
    CondVar done_cv;

    // Region state, guarded by mu.
    std::uint64_t generation CPT_GUARDED_BY(mu) = 0;
    const RegionFn* fn CPT_GUARDED_BY(mu) = nullptr;
    ChunkPlan plan CPT_GUARDED_BY(mu);
    std::size_t pending CPT_GUARDED_BY(mu) = 0;
    std::exception_ptr error CPT_GUARDED_BY(mu);
    bool shutdown CPT_GUARDED_BY(mu) = false;

    // Hands chunks 1.. of `p` to the workers.
    void publish(const RegionFn* f, const ChunkPlan& p) CPT_REQUIRES(region_mu)
        CPT_EXCLUDES(mu) {
        {
            LockGuard lock(mu);
            fn = f;
            plan = p;
            pending = p.chunks - 1;
            error = nullptr;
            ++generation;
        }
        start_cv.notify_all();
    }

    // Waits for the workers' chunks; returns the first exception they threw.
    std::exception_ptr collect() CPT_REQUIRES(region_mu) CPT_EXCLUDES(mu) {
        LockGuard lock(mu);
        while (pending != 0) done_cv.wait(mu);
        fn = nullptr;
        return error;
    }

    void worker_loop(std::size_t worker_id) {
        tls_in_worker = true;
        std::uint64_t seen = 0;
        mu.lock();
        for (;;) {
            while (!shutdown && generation == seen) start_cv.wait(mu);
            if (shutdown) break;
            seen = generation;
            const std::size_t chunk = worker_id + 1;
            if (chunk < plan.chunks) {
                const auto* f = fn;
                const auto [b, e] = plan.range(chunk);
                mu.unlock();
                std::exception_ptr err;
                try {
                    (*f)(chunk, b, e);
                } catch (...) {
                    err = std::current_exception();
                }
                mu.lock();
                if (err && !error) error = err;
                if (--pending == 0) done_cv.notify_one();
            }
        }
        mu.unlock();
    }
};

ThreadPool::ThreadPool(std::size_t threads) : threads_(threads == 0 ? 1 : threads) {
    if (threads_ == 1) return;
    impl_ = new Impl;
    impl_->workers.reserve(threads_ - 1);
    for (std::size_t i = 0; i + 1 < threads_; ++i) {
        impl_->workers.emplace_back([this, i] { impl_->worker_loop(i); });
    }
}

ThreadPool::~ThreadPool() {
    if (!impl_) return;
    {
        LockGuard lock(impl_->mu);
        impl_->shutdown = true;
    }
    impl_->start_cv.notify_all();
    for (auto& w : impl_->workers) w.join();
    delete impl_;
}

std::size_t ThreadPool::num_chunks(std::size_t n, std::size_t grain) const {
    const std::size_t effective = (impl_ && !tls_in_worker) ? threads_ : 1;
    return plan_chunks(n, grain, effective).chunks;
}

bool ThreadPool::in_worker() { return tls_in_worker; }

void ThreadPool::parallel_chunks(
    std::size_t n, std::size_t grain,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& fn) {
    if (n == 0) return;
    // Single-thread pool, nested call, or too little work: run inline.
    const ChunkPlan plan = plan_chunks(n, grain, (impl_ && !tls_in_worker) ? threads_ : 1);
    if (plan.chunks <= 1 || !impl_ || tls_in_worker) {
        for (std::size_t c = 0; c < plan.chunks; ++c) {
            const auto [b, e] = plan.range(c);
            fn(c, b, e);
        }
        return;
    }

    LockGuard region(impl_->region_mu);
    impl_->publish(&fn, plan);

    // The caller is lane 0.
    std::exception_ptr my_error;
    const bool was_in_worker = tls_in_worker;
    tls_in_worker = true;
    try {
        const auto [b, e] = plan.range(0);
        fn(0, b, e);
    } catch (...) {
        my_error = std::current_exception();
    }
    tls_in_worker = was_in_worker;

    std::exception_ptr err = impl_->collect();
    if (my_error) err = my_error;
    if (err) std::rethrow_exception(err);
}

void ThreadPool::parallel_for(std::size_t n, std::size_t grain,
                              const std::function<void(std::size_t, std::size_t)>& fn) {
    parallel_chunks(n, grain,
                    [&fn](std::size_t, std::size_t begin, std::size_t end) { fn(begin, end); });
}

namespace {

std::size_t env_threads() {
    if (const char* v = std::getenv("CPT_THREADS")) {
        char* end = nullptr;
        const long n = std::strtol(v, &end, 10);
        if (end != v && n > 0) return static_cast<std::size_t>(n);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

Mutex g_pool_mu;
std::unique_ptr<ThreadPool> g_pool CPT_GUARDED_BY(g_pool_mu);
std::size_t g_pool_threads CPT_GUARDED_BY(g_pool_mu) = 0;

}  // namespace

ThreadPool& global_pool() {
    LockGuard lock(g_pool_mu);
    if (!g_pool) {
        g_pool_threads = env_threads();
        g_pool = std::make_unique<ThreadPool>(g_pool_threads);
    }
    return *g_pool;
}

std::size_t configured_threads() {
    LockGuard lock(g_pool_mu);
    return g_pool ? g_pool_threads : env_threads();
}

void set_global_threads(std::size_t threads) {
    if (threads == 0) threads = 1;
    LockGuard lock(g_pool_mu);
    g_pool.reset();  // join old workers before replacing
    g_pool_threads = threads;
    g_pool = std::make_unique<ThreadPool>(threads);
}

}  // namespace cpt::util
