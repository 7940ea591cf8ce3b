/**
 * @file
 * Tests of the thread pool's parallel-for.
 */

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <functional>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "common/thread_pool.hh"

using adaptsim::ThreadPool;

TEST(ThreadPool, InlineWhenSingleThreaded)
{
    ThreadPool pool(1);
    std::vector<int> out(100, 0);
    pool.parallelFor(100, [&](std::size_t i) { out[i] = int(i); });
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(out[i], i);
}

TEST(ThreadPool, EveryIndexExactlyOnce)
{
    ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(500);
    pool.parallelFor(500, [&](std::size_t i) { ++hits[i]; });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, SumsMatch)
{
    ThreadPool pool(3);
    std::atomic<long> total{0};
    pool.parallelFor(1000, [&](std::size_t i) {
        total += long(i);
    });
    EXPECT_EQ(total.load(), 999L * 1000 / 2);
}

TEST(ThreadPool, SequentialBatchesReuseWorkers)
{
    ThreadPool pool(2);
    for (int round = 0; round < 20; ++round) {
        std::atomic<int> count{0};
        pool.parallelFor(50, [&](std::size_t) { ++count; });
        EXPECT_EQ(count.load(), 50);
    }
}

TEST(ThreadPool, ZeroTasksIsNoop)
{
    ThreadPool pool(2);
    bool touched = false;
    pool.parallelFor(0, [&](std::size_t) { touched = true; });
    EXPECT_FALSE(touched);
}

TEST(ThreadPool, SingleTaskRunsInline)
{
    ThreadPool pool(4);
    std::atomic<int> count{0};
    pool.parallelFor(1, [&](std::size_t) { ++count; });
    EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPool, JobExceptionPropagatesToCaller)
{
    ThreadPool pool(4);
    EXPECT_THROW(pool.parallelFor(100,
                                  [&](std::size_t i) {
                                      if (i == 37)
                                          throw std::runtime_error(
                                              "boom");
                                  }),
                 std::runtime_error);
}

TEST(ThreadPool, ExceptionSkipsUnstartedWork)
{
    ThreadPool pool(2);
    std::atomic<int> ran{0};
    EXPECT_THROW(pool.parallelFor(10000,
                                  [&](std::size_t) {
                                      ++ran;
                                      throw std::runtime_error(
                                          "first job fails");
                                  }),
                 std::runtime_error);
    // Only jobs already claimed when the failure hit may have run.
    EXPECT_LT(ran.load(), 10000);
}

TEST(ThreadPool, PoolUsableAfterException)
{
    ThreadPool pool(3);
    EXPECT_THROW(pool.parallelFor(50,
                                  [&](std::size_t) {
                                      throw std::runtime_error("x");
                                  }),
                 std::runtime_error);

    std::atomic<long> total{0};
    pool.parallelFor(1000, [&](std::size_t i) { total += long(i); });
    EXPECT_EQ(total.load(), 999L * 1000 / 2);
}

TEST(ThreadPool, InlineExceptionPropagatesAndPoolSurvives)
{
    ThreadPool pool(1);
    EXPECT_THROW(pool.parallelFor(5,
                                  [&](std::size_t i) {
                                      if (i == 2)
                                          throw std::runtime_error(
                                              "inline");
                                  }),
                 std::runtime_error);
    std::atomic<int> count{0};
    pool.parallelFor(5, [&](std::size_t) { ++count; });
    EXPECT_EQ(count.load(), 5);
}

TEST(ThreadPool, ReentrantUseIsRejected)
{
    ThreadPool pool(2);
    // The inner call throws std::logic_error inside the job, which
    // the pool surfaces on the calling thread.
    EXPECT_THROW(pool.parallelFor(
                     4,
                     [&](std::size_t) {
                         pool.parallelFor(2, [](std::size_t) {});
                     }),
                 std::logic_error);
}

TEST(ThreadPool, ReentrantUseIsRejectedInline)
{
    ThreadPool pool(1);
    EXPECT_THROW(pool.parallelFor(
                     2,
                     [&](std::size_t) {
                         pool.parallelFor(2, [](std::size_t) {});
                     }),
                 std::logic_error);
}

TEST(ThreadPool, NestedUseOfDistinctPoolsIsAllowed)
{
    ThreadPool outer(2);
    ThreadPool inner(2);
    std::atomic<int> count{0};
    outer.parallelFor(4, [&](std::size_t) {
        inner.parallelFor(8, [&](std::size_t) { ++count; });
    });
    EXPECT_EQ(count.load(), 32);
}

TEST(ThreadPool, ConcurrentExternalCallersSerialize)
{
    ThreadPool pool(4);
    std::atomic<long> a{0};
    std::atomic<long> b{0};
    std::thread t1([&] {
        pool.parallelFor(500, [&](std::size_t i) { a += long(i); });
    });
    std::thread t2([&] {
        pool.parallelFor(500, [&](std::size_t i) { b += long(i); });
    });
    t1.join();
    t2.join();
    EXPECT_EQ(a.load(), 499L * 500 / 2);
    EXPECT_EQ(b.load(), 499L * 500 / 2);
}

TEST(ThreadPool, BatchHandOffRunsEveryIndexOnceThroughItsOwnBatch)
{
    // Sequential batches that alternate between 64 and 2 indices.  A
    // worker that wakes late for a finished 64-index batch must not
    // claim indices of the next batch and run them through the old
    // batch's function: that loses the new batch's work, and the
    // stale claim count can wrap the drain counter so parallelFor
    // never returns.  The last few batches' functions stay alive, so
    // a stale call is counted instead of being undefined behaviour;
    // a watchdog turns a hang into a failure.
#if defined(__SANITIZE_THREAD__)
    constexpr std::size_t batches = 20000;
#else
    constexpr std::size_t batches = 200000;
#endif
    constexpr std::size_t ring = 8;
    constexpr std::size_t maxIndices = 64;

    struct Batch
    {
        std::atomic<std::size_t> id{0};
        std::atomic<bool> returned{false};
        std::size_t n = 0;
        std::array<std::atomic<int>, maxIndices> hits{};
        std::function<void(std::size_t)> fn;
    };
    std::vector<Batch> slots(ring);
    std::atomic<std::size_t> staleCalls{0};

    // The watchdog fails the test when no batch drains for 10 s.
    std::atomic<std::size_t> drained{0};
    std::atomic<bool> finished{false};
    std::thread watchdog([&] {
        std::size_t seen = 0;
        auto last_progress = std::chrono::steady_clock::now();
        while (!finished.load()) {
            const auto now = std::chrono::steady_clock::now();
            if (drained.load() != seen) {
                seen = drained.load();
                last_progress = now;
            } else if (now - last_progress > std::chrono::seconds(10)) {
                adaptsim::panic("ThreadPool batch hand-off: batch ",
                                seen, " did not drain within 10 s");
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
    });

    ThreadPool pool(2);
    std::size_t wrongBatches = 0;
    for (std::size_t b = 0; b < batches; ++b) {
        Batch &slot = slots[b % ring];
        slot.id.store(b);
        slot.returned.store(false);
        slot.n = b % 2 == 0 ? maxIndices : 2;
        for (auto &h : slot.hits)
            h.store(0);
        slot.fn = [&slot, &staleCalls, b](std::size_t i) {
            if (slot.id.load() != b || slot.returned.load() ||
                i >= slot.n) {
                ++staleCalls;
                return;
            }
            ++slot.hits[i];
        };
        pool.parallelFor(slot.n, slot.fn);
        slot.returned.store(true);
        drained.store(b + 1);
        for (std::size_t i = 0; i < slot.n; ++i) {
            if (slot.hits[i].load() != 1) {
                ++wrongBatches;
                break;
            }
        }
    }
    finished.store(true);
    watchdog.join();

    EXPECT_EQ(wrongBatches, 0u);
    EXPECT_EQ(staleCalls.load(), 0u);
}
