// Tests for the shared parallel substrate: static chunking coverage,
// grain-size behaviour, nested-region inlining, exception propagation, and
// the global pool controls.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/thread_pool.hpp"

namespace cpt::util {
namespace {

TEST(ThreadPoolTest, CoversEveryIndexExactlyOnce) {
    ThreadPool pool(4);
    constexpr std::size_t n = 10007;
    std::vector<std::atomic<int>> hits(n);
    pool.parallel_for(n, 1, [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
    });
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPoolTest, ChunksAreContiguousBalancedAndOrdered) {
    ThreadPool pool(3);
    constexpr std::size_t n = 10;
    std::vector<std::pair<std::size_t, std::size_t>> ranges(pool.num_chunks(n, 1));
    pool.parallel_chunks(n, 1, [&](std::size_t chunk, std::size_t b, std::size_t e) {
        ranges[chunk] = {b, e};
    });
    ASSERT_EQ(ranges.size(), 3u);
    std::size_t expect_begin = 0;
    std::size_t min_len = n;
    std::size_t max_len = 0;
    for (const auto& [b, e] : ranges) {
        EXPECT_EQ(b, expect_begin);
        EXPECT_GT(e, b);
        min_len = std::min(min_len, e - b);
        max_len = std::max(max_len, e - b);
        expect_begin = e;
    }
    EXPECT_EQ(expect_begin, n);
    EXPECT_LE(max_len - min_len, 1u);  // balanced to within one item
}

TEST(ThreadPoolTest, GrainLimitsChunkCount) {
    ThreadPool pool(8);
    EXPECT_EQ(pool.num_chunks(0, 1), 0u);
    EXPECT_EQ(pool.num_chunks(10, 100), 1u);   // less than one grain of work
    EXPECT_EQ(pool.num_chunks(250, 100), 3u);  // ceil(250/100)
    EXPECT_EQ(pool.num_chunks(10000, 1), 8u);  // capped by thread count
}

TEST(ThreadPoolTest, SingleThreadPoolRunsOnCaller) {
    ThreadPool pool(1);
    EXPECT_EQ(pool.threads(), 1u);
    const auto caller = std::this_thread::get_id();
    std::size_t calls = 0;
    pool.parallel_for(100, 1, [&](std::size_t b, std::size_t e) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        calls += e - b;
    });
    EXPECT_EQ(calls, 100u);
}

TEST(ThreadPoolTest, ZeroItemsNeverInvokes) {
    ThreadPool pool(4);
    pool.parallel_for(0, 1, [&](std::size_t, std::size_t) { FAIL() << "called on n = 0"; });
}

TEST(ThreadPoolTest, NestedParallelForRunsInline) {
    ThreadPool pool(4);
    std::atomic<std::size_t> total{0};
    pool.parallel_for(8, 1, [&](std::size_t b, std::size_t e) {
        EXPECT_TRUE(ThreadPool::in_worker());
        // The nested region must not redispatch to the pool (deadlock /
        // nondeterminism); it runs as one inline chunk.
        EXPECT_EQ(pool.num_chunks(100, 1), 1u);
        for (std::size_t i = b; i < e; ++i) {
            pool.parallel_for(10, 1, [&](std::size_t ib, std::size_t ie) {
                total.fetch_add(ie - ib);
            });
        }
    });
    EXPECT_FALSE(ThreadPool::in_worker());
    EXPECT_EQ(total.load(), 80u);
}

TEST(ThreadPoolTest, ExceptionPropagatesToCaller) {
    ThreadPool pool(4);
    EXPECT_THROW(pool.parallel_for(100, 1,
                                   [&](std::size_t b, std::size_t) {
                                       if (b >= 50) throw std::runtime_error("boom");
                                   }),
                 std::runtime_error);
    // The pool stays usable after an exception.
    std::atomic<std::size_t> n{0};
    pool.parallel_for(64, 1, [&](std::size_t b, std::size_t e) { n.fetch_add(e - b); });
    EXPECT_EQ(n.load(), 64u);
}

// Two external threads share one pool (as serve Engines share the global
// pool). Each region writes per-chunk partial sums into its own caller's
// buffer; a region published over another one in flight would run the wrong
// function or plan, and the sums would come out wrong (or the run would
// crash, or race under TSan).
TEST(ThreadPoolTest, ConcurrentExternalCallersGetExactSums) {
    ThreadPool pool(4);
    constexpr std::size_t kRegions = 2000;
    constexpr std::size_t kItems = 64;
    std::size_t bad[2] = {0, 0};
    std::vector<std::thread> callers;
    for (std::size_t t = 0; t < 2; ++t) {
        callers.emplace_back([&pool, &bad, t] {
            const std::size_t scale = t + 1;
            for (std::size_t region = 0; region < kRegions; ++region) {
                std::size_t partial[4] = {0, 0, 0, 0};
                pool.parallel_chunks(kItems, 1, [&](std::size_t c, std::size_t b, std::size_t e) {
                    for (std::size_t i = b; i < e; ++i) partial[c] += scale * i + region;
                });
                const std::size_t got = partial[0] + partial[1] + partial[2] + partial[3];
                const std::size_t want = scale * (kItems * (kItems - 1) / 2) + kItems * region;
                if (got != want) ++bad[t];
            }
        });
    }
    for (auto& c : callers) c.join();
    EXPECT_EQ(bad[0], 0u);
    EXPECT_EQ(bad[1], 0u);
}

TEST(ThreadPoolTest, GrainForTargetsMinimumChunkCost) {
    EXPECT_EQ(grain_for(16384), 1u);
    EXPECT_EQ(grain_for(1, 100), 100u);
    EXPECT_EQ(grain_for(1 << 30), 1u);  // enormous per-item cost still legal
    EXPECT_EQ(grain_for(0, 100), 100u);
}

TEST(ThreadPoolTest, GlobalPoolControls) {
    set_global_threads(3);
    EXPECT_EQ(configured_threads(), 3u);
    EXPECT_EQ(global_pool().threads(), 3u);
    std::atomic<std::size_t> n{0};
    global_pool().parallel_for(30, 1, [&](std::size_t b, std::size_t e) { n.fetch_add(e - b); });
    EXPECT_EQ(n.load(), 30u);
    set_global_threads(1);
    EXPECT_EQ(global_pool().threads(), 1u);
}

}  // namespace
}  // namespace cpt::util
