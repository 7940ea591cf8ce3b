/**
 * @file
 * Tests of the reorder-buffer ring.
 */

#include <gtest/gtest.h>

#include "uarch/rob.hh"

using namespace adaptsim::uarch;

TEST(Rob, PushPopOrder)
{
    Rob rob(8);
    EXPECT_TRUE(rob.empty());
    const auto a = rob.push();
    const auto b = rob.push();
    EXPECT_EQ(rob.occupancy(), 2);
    EXPECT_EQ(rob.headIndex(), a);
    rob.popHead();
    EXPECT_EQ(rob.headIndex(), b);
    rob.popHead();
    EXPECT_TRUE(rob.empty());
}

TEST(Rob, FullDetection)
{
    Rob rob(4);
    for (int i = 0; i < 4; ++i)
        rob.push();
    EXPECT_TRUE(rob.full());
    rob.popHead();
    EXPECT_FALSE(rob.full());
}

TEST(Rob, WrapsAround)
{
    Rob rob(4);
    for (int round = 0; round < 10; ++round) {
        const auto idx = rob.push();
        rob.entry(idx).doneCycle = round;
        rob.popHead();
    }
    EXPECT_TRUE(rob.empty());
}

TEST(Rob, SeqGuardsAgainstRecycledSlots)
{
    Rob rob(4);
    const auto idx = rob.push();
    const auto seq = rob.entry(idx).seq;
    EXPECT_TRUE(rob.valid(idx, seq));
    rob.popHead();
    EXPECT_FALSE(rob.valid(idx, seq));
    const auto idx2 = rob.push();   // recycles the slot eventually
    (void)idx2;
    EXPECT_FALSE(rob.valid(idx, seq));
}

TEST(Rob, SquashYoungestInvokesCallbackNewestFirst)
{
    Rob rob(8);
    const auto a = rob.push();
    const auto b = rob.push();
    const auto c = rob.push();
    rob.entry(a).doneCycle = 1;
    rob.entry(b).doneCycle = 2;
    rob.entry(c).doneCycle = 3;

    std::vector<adaptsim::Cycles> seen;
    rob.squashYoungest(2, [&](std::int32_t, RobEntry &e) {
        seen.push_back(e.doneCycle);
    });
    ASSERT_EQ(seen.size(), 2u);
    EXPECT_EQ(seen[0], 3u);   // youngest first
    EXPECT_EQ(seen[1], 2u);
    EXPECT_EQ(rob.occupancy(), 1);
    EXPECT_EQ(rob.headIndex(), a);
}

TEST(Rob, DistanceFromHead)
{
    Rob rob(4);
    // Advance the ring so head isn't at slot 0.
    rob.push();
    rob.push();
    rob.popHead();
    rob.popHead();
    const auto x = rob.push();
    const auto y = rob.push();
    const auto z = rob.push();
    EXPECT_EQ(rob.distanceFromHead(x), 0);
    EXPECT_EQ(rob.distanceFromHead(y), 1);
    EXPECT_EQ(rob.distanceFromHead(z), 2);
    EXPECT_EQ(rob.indexFromHead(1), y);
    EXPECT_EQ(rob.tailIndex(), z);
}

TEST(Rob, RingArithmeticOnANonPowerOfTwoCapacity)
{
    // Table I ROB sizes step by 8 and are mostly not powers of two;
    // the ring must wrap exactly as modular arithmetic would.
    constexpr int cap = 6;
    Rob rob(cap);
    int head = 0;
    for (int round = 0; round < 20; ++round) {
        // Fill or drain to a varying depth, check every position,
        // then retire one so the head keeps walking the ring.
        const int depth = 1 + round % cap;
        while (rob.occupancy() < depth)
            rob.push();
        while (rob.occupancy() > depth) {
            rob.popHead();
            head = (head + 1) % cap;
        }
        ASSERT_EQ(rob.headIndex(), head);
        for (int i = 0; i < depth; ++i) {
            const std::int32_t idx = (head + i) % cap;
            EXPECT_EQ(rob.indexFromHead(i), idx);
            EXPECT_EQ(rob.distanceFromHead(idx), i);
        }
        EXPECT_EQ(rob.tailIndex(), (head + depth - 1) % cap);
        rob.popHead();
        head = (head + 1) % cap;
    }
}

TEST(Rob, PushResetsEntryState)
{
    Rob rob(4);
    const auto a = rob.push();
    rob.entry(a).wrongPath = true;
    rob.entry(a).inIq = true;
    rob.popHead();
    rob.push();
    rob.push();
    rob.push();
    const auto c = rob.push();   // ring wraps back onto slot a
    EXPECT_EQ(c, a);
    EXPECT_FALSE(rob.entry(c).wrongPath);
    EXPECT_FALSE(rob.entry(c).inIq);
    EXPECT_EQ(rob.entry(c).state, OpState::Dispatched);
}
