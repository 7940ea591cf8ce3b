/**
 * @file
 * Tests of the reuse-distance monitors.
 */

#include <gtest/gtest.h>

#include "counters/reuse_distance.hh"
#include "histogram_total.hh"

using namespace adaptsim;
using namespace adaptsim::counters;
using adaptsim::test::histogramTotal;

TEST(ReuseDistance, KnownStream)
{
    ReuseDistanceMonitor m;
    // Stream: A B A → A's reuse distance is 2 (accesses apart).
    m.access(0xA);
    m.access(0xB);
    m.access(0xA);
    EXPECT_EQ(m.accesses(), 3u);
    const auto &h = m.histogram();
    EXPECT_EQ(histogramTotal(h), 1u);
    EXPECT_EQ(h.count(h.binIndex(2)), 1u);
}

TEST(ReuseDistance, FirstTouchNotCounted)
{
    ReuseDistanceMonitor m;
    m.access(1);
    m.access(2);
    m.access(3);
    EXPECT_EQ(histogramTotal(m.histogram()), 0u);
}

TEST(ReuseDistance, TightLoopIsShortDistance)
{
    ReuseDistanceMonitor m;
    for (int i = 0; i < 100; ++i) {
        m.access(1);
        m.access(2);
    }
    // All re-references at distance 2 → log2 bin for 2.
    const auto &h = m.histogram();
    EXPECT_EQ(h.count(h.binIndex(2)), histogramTotal(h));
}

TEST(ReuseDistance, ClearResets)
{
    ReuseDistanceMonitor m;
    m.access(1);
    m.access(1);
    m.clear();
    EXPECT_EQ(m.accesses(), 0u);
    EXPECT_EQ(histogramTotal(m.histogram()), 0u);
}

TEST(SetReuse, MapsAddressesToSets)
{
    // 64 sets of 64B lines: addresses 0 and 64*64 share set 0.
    SetReuseMonitor m(64, 64);
    m.access(0);
    m.access(64 * 64);   // same set, different block
    const auto &h = m.histogram();
    EXPECT_EQ(histogramTotal(h), 1u);   // set re-reference at distance 1
    EXPECT_EQ(h.count(h.binIndex(1)), 1u);
}

TEST(SetReuse, DifferentSetsNoReuse)
{
    SetReuseMonitor m(64, 64);
    m.access(0);
    m.access(64);        // next set
    m.access(2 * 64);
    EXPECT_EQ(histogramTotal(m.histogram()), 0u);
}

TEST(SetReuse, ReducedGeometryCreatesConflicts)
{
    // The same stream seen by a large cache (1024 sets) and by the
    // "reduced" small geometry (64 sets): the small geometry must
    // observe far more set reuse — exactly the signal the reduced
    // set-reuse counter exists to expose (Sec. III-B2).
    SetReuseMonitor big(1024, 64);
    SetReuseMonitor reduced(64, 64);
    for (int i = 0; i < 256; ++i) {
        const Addr a = Addr(i) * 64;
        big.access(a);
        reduced.access(a);
    }
    // Second pass.
    for (int i = 0; i < 256; ++i) {
        const Addr a = Addr(i) * 64;
        big.access(a);
        reduced.access(a);
    }
    EXPECT_GT(histogramTotal(reduced.histogram()),
              histogramTotal(big.histogram()));
}

TEST(SetReuse, RejectsNonPowerOfTwo)
{
    EXPECT_EXIT((SetReuseMonitor{100, 64}),
                ::testing::ExitedWithCode(1), "");
}
