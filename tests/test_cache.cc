/**
 * @file
 * Tests of the set-associative LRU cache tag model.
 */

#include <gtest/gtest.h>

#include "uarch/cache.hh"

using adaptsim::Addr;
using adaptsim::uarch::Cache;

TEST(Cache, Geometry)
{
    Cache c(32 * 1024, 2, 64);
    EXPECT_EQ(c.numSets(), 256u);
    EXPECT_EQ(c.assoc(), 2);
    EXPECT_EQ(c.blockAddr(64), 1u);
}

TEST(Cache, BlockAndSetIndexFollowTheLineSize)
{
    for (const int line : {16, 32, 64, 128}) {
        Cache c(8 * 1024, 2, line);
        for (const Addr a : {Addr(0), Addr(0x1234567), Addr(0xfedcba98),
                             Addr(0x7fff'ffff'ffffULL)}) {
            EXPECT_EQ(c.blockAddr(a), a / Addr(line));
            EXPECT_EQ(c.setIndex(a), (a / Addr(line)) % c.numSets());
        }
    }
}

TEST(Cache, MissThenHit)
{
    Cache c(8 * 1024, 2, 64);
    EXPECT_FALSE(c.access(0x1000, false).hit);
    EXPECT_TRUE(c.access(0x1000, false).hit);
    EXPECT_TRUE(c.access(0x103f, false).hit);   // same line
    EXPECT_FALSE(c.access(0x1040, false).hit);  // next line
}

TEST(Cache, LruEviction)
{
    // 2-way: three conflicting lines in one set evict the LRU.
    Cache c(8 * 1024, 2, 64);
    const Addr set_stride = c.numSets() * 64;
    const Addr a = 0x0, b = a + set_stride, d = a + 2 * set_stride;
    c.access(a, false);
    c.access(b, false);
    c.access(a, false);        // a is now MRU
    c.access(d, false);        // evicts b
    EXPECT_TRUE(c.probe(a));
    EXPECT_FALSE(c.probe(b));
    EXPECT_TRUE(c.probe(d));
}

TEST(Cache, DirtyEvictionSignalsWriteback)
{
    Cache c(8 * 1024, 2, 64);
    const Addr set_stride = c.numSets() * 64;
    c.access(0x0, true);                     // dirty
    c.access(set_stride, false);
    const auto r = c.access(2 * set_stride, false); // evicts dirty
    EXPECT_TRUE(r.writeback);
}

TEST(Cache, CleanEvictionNoWriteback)
{
    Cache c(8 * 1024, 2, 64);
    const Addr set_stride = c.numSets() * 64;
    c.access(0x0, false);
    c.access(set_stride, false);
    EXPECT_FALSE(c.access(2 * set_stride, false).writeback);
}

TEST(Cache, WriteHitMarksDirty)
{
    Cache c(8 * 1024, 2, 64);
    const Addr set_stride = c.numSets() * 64;
    c.access(0x0, false);      // clean fill
    c.access(0x0, true);       // write hit → dirty
    c.access(set_stride, false);
    EXPECT_TRUE(c.access(2 * set_stride, false).writeback);
}

TEST(Cache, ProbeDoesNotDisturbLru)
{
    Cache c(8 * 1024, 2, 64);
    const Addr set_stride = c.numSets() * 64;
    c.access(0x0, false);
    c.access(set_stride, false);
    (void)c.probe(0x0);        // must NOT refresh 0x0
    c.access(2 * set_stride, false);   // evicts true LRU (0x0)
    EXPECT_FALSE(c.probe(0x0));
}

TEST(Cache, RejectsBadGeometry)
{
    EXPECT_EXIT((Cache{1000, 2, 64}),
                ::testing::ExitedWithCode(1), "");
}

/** Property: every Table I cache size works at both associativities,
 *  and a linear sweep larger than the cache always misses on
 *  revisit. */
class CacheSizeSweep
    : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(CacheSizeSweep, ThrashingSweepMisses)
{
    const std::uint64_t bytes = GetParam();
    Cache c(bytes, 2, 64);
    // Touch 2x the capacity, twice; the second pass of a true-LRU
    // cache with a sweep of 2x capacity misses everywhere.
    const Addr span = 2 * bytes;
    for (Addr a = 0; a < span; a += 64)
        c.access(a, false);
    int hits = 0;
    for (Addr a = 0; a < span; a += 64)
        hits += c.access(a, false).hit;
    EXPECT_EQ(hits, 0);
}

INSTANTIATE_TEST_SUITE_P(TableOneSizes, CacheSizeSweep,
                         ::testing::Values(8192, 16384, 32768, 65536,
                                           131072, 262144));
