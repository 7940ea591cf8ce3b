/**
 * @file
 * Tests of the interval trace LRU cache.
 */

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "counter_delta.hh"
#include "workload/spec_suite.hh"
#include "workload/trace_cache.hh"

using namespace adaptsim::workload;
using adaptsim::test::CounterDelta;

TEST(TraceCache, MissThenHit)
{
    const auto wl = specBenchmark("gzip", 50000);
    const CounterDelta d;
    TraceCache cache(4);
    const auto a = cache.get(wl, 1000, 500);
    EXPECT_EQ(d("tracecache/misses"), 1u);
    const auto b = cache.get(wl, 1000, 500);
    EXPECT_EQ(d("tracecache/hits"), 1u);
    EXPECT_EQ(a.get(), b.get());   // shared, not regenerated
    EXPECT_EQ(a->size(), 500u);
}

TEST(TraceCache, DistinctKeysAreDistinctEntries)
{
    const auto wl = specBenchmark("gzip", 50000);
    const CounterDelta d;
    TraceCache cache(4);
    (void)cache.get(wl, 0, 100);
    (void)cache.get(wl, 100, 100);
    (void)cache.get(wl, 0, 200);
    EXPECT_EQ(d("tracecache/misses"), 3u);
    EXPECT_EQ(cache.size(), 3u);
}

TEST(TraceCache, EvictsLeastRecentlyUsed)
{
    const auto wl = specBenchmark("gzip", 50000);
    const CounterDelta d;
    TraceCache cache(2);
    (void)cache.get(wl, 0, 64);      // A
    (void)cache.get(wl, 64, 64);     // B
    (void)cache.get(wl, 0, 64);      // A again (hit, refresh)
    (void)cache.get(wl, 128, 64);    // C — evicts B
    EXPECT_EQ(cache.size(), 2u);
    (void)cache.get(wl, 0, 64);      // A still cached
    EXPECT_EQ(d("tracecache/hits"), 2u);
    (void)cache.get(wl, 64, 64);     // B was evicted
    EXPECT_EQ(d("tracecache/misses"), 4u);
}

TEST(TraceCache, DifferentWorkloadsDoNotCollide)
{
    const auto a = specBenchmark("gzip", 50000);
    const auto b = specBenchmark("mcf", 50000);
    const CounterDelta d;
    TraceCache cache(4);
    const auto ta = cache.get(a, 0, 50);
    const auto tb = cache.get(b, 0, 50);
    EXPECT_EQ(d("tracecache/misses"), 2u);
    // Same nominal code region, but the op streams must differ.
    int same = 0;
    for (std::size_t i = 0; i < 50; ++i)
        same += (*ta)[i].opClass == (*tb)[i].opClass &&
                (*ta)[i].pc == (*tb)[i].pc;
    EXPECT_LT(same, 40);
}

TEST(TraceCache, DefaultCapacityIs48)
{
    TraceCache dflt;
    EXPECT_EQ(dflt.capacity(), 48u);
    EXPECT_DEATH(TraceCache(0), "capacity must be at least 1");
}

TEST(TraceCache, CapacityOneStillServesHits)
{
    const auto wl = specBenchmark("gzip", 50000);
    const CounterDelta d;
    TraceCache cache(1);
    (void)cache.get(wl, 0, 64);
    const auto a = cache.get(wl, 0, 64);   // resident → hit
    EXPECT_EQ(d("tracecache/hits"), 1u);
    (void)cache.get(wl, 64, 64);           // evicts the only entry
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(d("tracecache/evictions"), 1u);
    // The evicted trace stays alive through the shared_ptr.
    EXPECT_EQ(a->size(), 64u);
    (void)cache.get(wl, 0, 64);            // re-generated
    EXPECT_EQ(d("tracecache/misses"), 3u);
}

TEST(TraceCache, StatsSnapshotIsConsistent)
{
    const auto wl = specBenchmark("gzip", 50000);
    const CounterDelta d;
    TraceCache cache(2);
    (void)cache.get(wl, 0, 32);
    (void)cache.get(wl, 0, 32);
    (void)cache.get(wl, 32, 32);
    (void)cache.get(wl, 64, 32);   // eviction
    EXPECT_EQ(d("tracecache/hits"), 1u);
    EXPECT_EQ(d("tracecache/misses"), 3u);
    EXPECT_EQ(d("tracecache/evictions"), 1u);
}

TEST(TraceCache, SharedAcrossThreads)
{
    // Hammer one small cache from several threads: every returned
    // trace for a key must be bit-identical, and each distinct key
    // is generated at most once per residency.  Run under TSan via
    // scripts/tier1.sh to prove the locking discipline.
    const auto wl = specBenchmark("mcf", 50000);
    const CounterDelta d;
    TraceCache cache(8);
    constexpr int threads = 4;
    constexpr int rounds = 32;
    std::vector<std::vector<TracePtr>> got(threads);
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (int t = 0; t < threads; ++t) {
        pool.emplace_back([&, t] {
            for (int r = 0; r < rounds; ++r)
                got[t].push_back(
                    cache.get(wl, (r % 4) * 100, 100));
        });
    }
    for (auto &th : pool)
        th.join();
    // 4 distinct keys, capacity 8: generated exactly once each.
    EXPECT_EQ(d("tracecache/misses"), 4u);
    EXPECT_EQ(d("tracecache/hits"),
              static_cast<std::uint64_t>(threads * rounds - 4));
    for (int t = 1; t < threads; ++t)
        for (int r = 0; r < rounds; ++r)
            EXPECT_EQ(got[t][r].get(), got[0][r].get());
}

TEST(TraceCache, ContentMatchesDirectGeneration)
{
    const auto wl = specBenchmark("swim", 50000);
    TraceCache cache(4);
    const auto cached = cache.get(wl, 2000, 300);
    const auto direct = wl.generate(2000, 300);
    EXPECT_TRUE(*cached == direct);
}

TEST(TraceCache, SameNameDifferentSeedOrLengthDoNotCollide)
{
    const auto base = specBenchmark("gcc", 400000, 1);
    const auto reseeded = specBenchmark("gcc", 400000, 2);
    const auto shorter = specBenchmark("gcc", 100000, 1);
    const CounterDelta d;
    TraceCache cache(8);
    for (const Workload *wl : {&base, &reseeded, &shorter})
        EXPECT_TRUE(*cache.get(*wl, 50000, 100) ==
                    wl->generate(50000, 100))
            << wl->seed() << " " << wl->totalInstructions();
    EXPECT_EQ(d("tracecache/misses"), 3u);
    EXPECT_EQ(d("tracecache/hits"), 0u);
}

TEST(TraceCache, SequentialWalkReplaysNothing)
{
    const auto wl = specBenchmark("gcc", 60000);
    const CounterDelta d;
    TraceCache cache(2);
    for (std::uint64_t start = 0; start < 60000; start += 5000)
        EXPECT_TRUE(*cache.get(wl, start, 5000) ==
                    wl.generate(start, 5000))
            << start;
    EXPECT_EQ(d("tracecache/skipped"), 0u);
    // A jump back mid-segment reseeks and counts the replay.
    (void)cache.get(wl, 1000, 500);
    EXPECT_EQ(d("tracecache/skipped"), 1000u);
}

TEST(TraceCache, InterleavedWalksOfTwoWorkloadsStayLinear)
{
    // One cursor per workload: alternating misses of two programs
    // each resume their own stream.
    const auto a = specBenchmark("gzip", 40000);
    const auto b = specBenchmark("art", 40000);
    const CounterDelta d;
    TraceCache cache(4);
    for (std::uint64_t start = 0; start < 40000; start += 2500) {
        EXPECT_TRUE(*cache.get(a, start, 2500) ==
                    a.generate(start, 2500))
            << "gzip " << start;
        EXPECT_TRUE(*cache.get(b, start, 2500) ==
                    b.generate(start, 2500))
            << "art " << start;
    }
    EXPECT_EQ(d("tracecache/misses"), 32u);
    EXPECT_EQ(d("tracecache/skipped"), 0u);
}

TEST(TraceCache, ConcurrentWalksOfOneWorkloadMatchColdGeneration)
{
    // Several threads walk the same program's intervals; their
    // misses interleave on the one cursor, forcing reseeks.  Every
    // trace must still equal cold generation.  Run under TSan via
    // scripts/tier1.sh.
    const auto wl = specBenchmark("mcf", 30000);
    constexpr std::uint64_t interval = 2000;
    constexpr std::uint64_t n = 30000 / interval;
    std::vector<std::vector<adaptsim::isa::MicroOp>> cold;
    for (std::uint64_t i = 0; i < n; ++i)
        cold.push_back(wl.generate(i * interval, interval));

    TraceCache cache(2);
    constexpr int threads = 4;
    std::vector<int> mismatches(threads, 0);
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (int t = 0; t < threads; ++t) {
        pool.emplace_back([&, t] {
            for (std::uint64_t k = 0; k < n; ++k) {
                // Each thread starts at a different interval.
                const std::uint64_t i = (k + t * 3) % n;
                if (!(*cache.get(wl, i * interval, interval) ==
                      cold[i]))
                    ++mismatches[t];
            }
        });
    }
    for (auto &th : pool)
        th.join();
    for (int t = 0; t < threads; ++t)
        EXPECT_EQ(mismatches[t], 0) << "thread " << t;
}
