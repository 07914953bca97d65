// Shared parallel compute substrate (see DESIGN.md "Parallel substrate").
//
// A ThreadPool owns `threads - 1` persistent workers; the calling thread is
// always the remaining lane, so a pool of size 1 never spawns a thread and
// parallel_for degrades to a plain loop. Work is split by *static chunking*:
// [0, n) is cut into at most `threads` contiguous ranges of at least `grain`
// items each, and every range is executed exactly once. There is no work
// stealing and no dynamic re-splitting, so which items run together — and
// therefore the arithmetic performed per item — is a pure function of
// (n, grain, threads), never of scheduling. Callers that keep per-item
// outputs disjoint get bit-identical results for every thread count.
//
// Nested parallel_for calls from inside a worker run inline on that worker
// (no thread explosion, no deadlock), so an outer region (e.g. HubTrainer's
// slice workers) serializes the trainer's data-parallel shards inside it. The
// nn kernels never open a region: training and decode both run them on their
// caller's thread, and nn work runs in parallel only through four coarse
// owners — the trainer's shards, the hub's slices, the sampler's lanes and
// the serve Engines.
//
// Several external threads may share one pool (e.g. two threads each running
// Sampler::generate_to, whose decode lanes are one region): their regions
// take turns owning the workers, one region at a time, and each runs the
// same static chunking it would run alone.
//
// The global pool is sized by the CPT_THREADS environment variable (default:
// hardware concurrency) and is created lazily on first use.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

namespace cpt::util {

class ThreadPool {
public:
    // `threads` is the total parallel width including the calling thread;
    // 0 is treated as 1. A pool of size 1 spawns no workers.
    explicit ThreadPool(std::size_t threads);
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    std::size_t threads() const { return threads_; }

    // Runs fn(begin, end) over a static chunking of [0, n). Blocks until all
    // chunks finish; the calling thread executes chunk 0. Exceptions thrown
    // by fn are rethrown (first one wins). Runs inline when the pool has one
    // thread, when only one chunk results, or when called from a worker.
    void parallel_for(std::size_t n, std::size_t grain,
                      const std::function<void(std::size_t, std::size_t)>& fn);

    // Same, but fn also receives the chunk index — for deterministic
    // per-chunk partial reductions merged in chunk order afterwards.
    void parallel_chunks(std::size_t n, std::size_t grain,
                         const std::function<void(std::size_t, std::size_t, std::size_t)>& fn);

    // True while the current thread is executing a pool task (used to run
    // nested parallel regions inline).
    static bool in_worker();

private:
    struct Impl;
    Impl* impl_ = nullptr;  // null for single-thread pools
    std::size_t threads_ = 1;
};

// The process-wide pool, sized by CPT_THREADS (default: hardware
// concurrency). Thread-safe lazy construction.
ThreadPool& global_pool();

// Thread count the global pool would be (or was) created with.
std::size_t configured_threads();

// Recreates the global pool with `threads` lanes. Intended for tests and
// benchmarks that compare thread counts; not safe while parallel work from
// another thread is in flight.
void set_global_threads(std::size_t threads);

// Grain size putting at least `min_items_cost` units of work in each chunk,
// given an estimated `cost_per_item` (both in arbitrary comparable units).
// Keeps small workloads on one thread so parallelism never costs more than
// the work it spreads.
inline std::size_t grain_for(std::size_t cost_per_item, std::size_t min_chunk_cost = 16384) {
    if (cost_per_item == 0) cost_per_item = 1;
    const std::size_t g = min_chunk_cost / cost_per_item;
    return g > 0 ? g : 1;
}

}  // namespace cpt::util
