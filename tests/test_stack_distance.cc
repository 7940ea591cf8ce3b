/**
 * @file
 * Tests of the Fenwick-tree stack-distance monitor, including a
 * property test against a naive LRU-stack reference implementation.
 */

#include <gtest/gtest.h>

#include <list>
#include <unordered_map>

#include "common/rng.hh"
#include "counters/reuse_distance.hh"
#include "counters/stack_distance.hh"
#include "histogram_total.hh"

using namespace adaptsim;
using adaptsim::counters::StackDistanceMonitor;
using adaptsim::test::histogramTotal;

namespace
{

/** Naive O(n) LRU stack used as the ground truth. */
class NaiveStack
{
  public:
    /** Returns the stack distance, or -1 for a cold access. */
    long
    access(Addr block)
    {
        long dist = 0;
        for (auto it = stack_.begin(); it != stack_.end(); ++it) {
            if (*it == block) {
                stack_.erase(it);
                stack_.push_front(block);
                return dist;
            }
            ++dist;
        }
        stack_.push_front(block);
        return -1;
    }

  private:
    std::list<Addr> stack_;
};

} // namespace

TEST(StackDistance, KnownSequence)
{
    StackDistanceMonitor m(64);
    // Blocks: A B C A  → A's distance is 2 distinct blocks (B, C).
    m.access(0 * 64);
    m.access(1 * 64);
    m.access(2 * 64);
    m.access(0 * 64);
    EXPECT_EQ(m.coldAccesses(), 3u);
    const auto &h = m.histogram();
    EXPECT_EQ(histogramTotal(h), 1u);
    EXPECT_EQ(h.count(h.binIndex(2)), 1u);
}

TEST(StackDistance, RepeatAccessIsDistanceZero)
{
    StackDistanceMonitor m(64);
    m.access(0);
    m.access(0);
    const auto &h = m.histogram();
    EXPECT_EQ(h.count(h.binIndex(0)), 1u);
}

TEST(StackDistance, SubBlockAddressesShareBlock)
{
    StackDistanceMonitor m(64);
    m.access(0);
    m.access(63);   // same 64B block
    EXPECT_EQ(m.coldAccesses(), 1u);
    EXPECT_EQ(histogramTotal(m.histogram()), 1u);
}

TEST(StackDistance, MatchesNaiveReferenceOnRandomStreams)
{
    // Property test: exact agreement with a naive LRU stack over
    // random streams with varying locality, including Fenwick-tree
    // growth (more accesses than the initial tree capacity).
    Rng rng(77);
    for (int trial = 0; trial < 3; ++trial) {
        StackDistanceMonitor m(64);
        NaiveStack ref;
        Histogram ref_hist(Histogram::Binning::Log2,
                           adaptsim::counters::reuseBins);
        std::uint64_t ref_cold = 0;
        const int blocks = 50 + int(rng.nextBounded(400));
        for (int i = 0; i < 3000; ++i) {
            const Addr block = rng.nextBounded(blocks);
            m.access(block * 64);
            const long d = ref.access(block);
            if (d < 0)
                ++ref_cold;
            else
                ref_hist.add(std::uint64_t(d));
        }
        EXPECT_EQ(m.coldAccesses(), ref_cold);
        ASSERT_EQ(m.histogram().numBins(), ref_hist.numBins());
        for (std::size_t b = 0; b < ref_hist.numBins(); ++b)
            EXPECT_EQ(m.histogram().count(b), ref_hist.count(b))
                << "bin " << b << " trial " << trial;
    }
}

TEST(StackDistance, ClearResets)
{
    StackDistanceMonitor m(64);
    m.access(0);
    m.access(64);
    m.access(0);
    m.clear();
    EXPECT_EQ(m.accesses(), 0u);
    EXPECT_EQ(m.coldAccesses(), 0u);
    EXPECT_EQ(histogramTotal(m.histogram()), 0u);
    // Still functional after clear.
    m.access(0);
    m.access(0);
    EXPECT_EQ(histogramTotal(m.histogram()), 1u);
}

TEST(StackDistance, SurvivesTreeGrowth)
{
    // More than the initial 1024-capacity Fenwick tree.
    StackDistanceMonitor m(64);
    for (int i = 0; i < 5000; ++i)
        m.access(Addr(i % 700) * 64);
    EXPECT_EQ(m.accesses(), 5000u);
    EXPECT_EQ(m.coldAccesses(), 700u);
    // Steady-state distance is 699 for every re-reference.
    const auto &h = m.histogram();
    EXPECT_EQ(h.count(h.binIndex(699)), 5000u - 700u);
}
