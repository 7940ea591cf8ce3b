/**
 * @file
 * Tests of the wakeup/select issue queue.
 */

#include <gtest/gtest.h>

#include <vector>

#include "uarch/issue_queue.hh"

using adaptsim::uarch::IssueQueue;

namespace
{

/** Ready ROB slots in select order, ROB head at @p oldest. */
std::vector<std::int32_t>
readyInAgeOrder(const IssueQueue &iq, std::int32_t oldest)
{
    std::vector<std::int32_t> out;
    iq.forEachReady(oldest, [&](std::int32_t idx) {
        out.push_back(idx);
        return true;
    });
    return out;
}

} // namespace

TEST(IssueQueue, FullDetection)
{
    IssueQueue iq(2, 8);
    EXPECT_TRUE(iq.empty());
    iq.insert(1, -1, -1);
    EXPECT_FALSE(iq.full());
    iq.insert(2, -1, -1);
    EXPECT_TRUE(iq.full());
    EXPECT_EQ(iq.occupancy(), 2);
    iq.remove(1);
    EXPECT_FALSE(iq.full());
    EXPECT_EQ(iq.occupancy(), 1);
}

TEST(IssueQueue, OpWithoutPendingProducersIsReady)
{
    IssueQueue iq(4, 8);
    iq.insert(3, -1, -1);
    EXPECT_EQ(readyInAgeOrder(iq, 0), (std::vector<std::int32_t>{3}));
}

TEST(IssueQueue, WakeupReadiesAfterTheLastProducer)
{
    IssueQueue iq(8, 8);
    iq.insert(0, -1, -1);   // producer A
    iq.insert(1, -1, -1);   // producer B
    iq.insert(2, 0, 1);     // waits on A and B
    iq.insert(3, 0, 0);     // both operands wait on A
    EXPECT_EQ(readyInAgeOrder(iq, 0),
              (std::vector<std::int32_t>{0, 1}));

    iq.remove(0);   // A issues...
    iq.wakeup(0);   // ...and completes
    EXPECT_EQ(readyInAgeOrder(iq, 0),
              (std::vector<std::int32_t>{1, 3}));

    iq.remove(1);
    iq.wakeup(1);
    EXPECT_EQ(readyInAgeOrder(iq, 0),
              (std::vector<std::int32_t>{2, 3}));
}

TEST(IssueQueue, SelectIsAgeOrderedAcrossRobWrapAround)
{
    // ROB of 70 slots (two ready-set words) with its head at slot
    // 66: the oldest ops sit at the top of the index space and the
    // youngest wrap to slots 0, 1 and 64.
    IssueQueue iq(16, 70);
    for (std::int32_t idx : {66, 68, 69, 0, 1, 64})
        iq.insert(idx, -1, -1);
    EXPECT_EQ(readyInAgeOrder(iq, 66),
              (std::vector<std::int32_t>{66, 68, 69, 0, 1, 64}));

    // A visitor may stop early and may remove what it visits.
    std::vector<std::int32_t> issued;
    iq.forEachReady(66, [&](std::int32_t idx) {
        issued.push_back(idx);
        iq.remove(idx);
        return issued.size() < 4;
    });
    EXPECT_EQ(issued, (std::vector<std::int32_t>{66, 68, 69, 0}));
    EXPECT_EQ(readyInAgeOrder(iq, 66),
              (std::vector<std::int32_t>{1, 64}));
    EXPECT_EQ(iq.occupancy(), 2);
}

TEST(IssueQueue, SquashRemovesWaitingOpsYoungestFirst)
{
    IssueQueue iq(8, 8);
    iq.insert(4, -1, -1);   // producer, issued below
    iq.insert(5, 4, -1);
    iq.insert(6, 5, 4);
    iq.insert(7, 4, 4);
    iq.remove(4);

    // Squash everything younger than slot 5, youngest first.
    iq.remove(7);
    iq.remove(6);
    EXPECT_EQ(iq.occupancy(), 1);

    // The producer's completion wakes only the survivor; the
    // squashed slots stay out of the ready set.
    iq.wakeup(4);
    EXPECT_EQ(readyInAgeOrder(iq, 4), (std::vector<std::int32_t>{5}));

    // The squashed slots are reusable with fresh producers.
    iq.insert(6, 5, -1);
    iq.insert(7, -1, -1);
    EXPECT_EQ(readyInAgeOrder(iq, 4),
              (std::vector<std::int32_t>{5, 7}));
    iq.remove(5);
    iq.wakeup(5);
    EXPECT_EQ(readyInAgeOrder(iq, 4),
              (std::vector<std::int32_t>{6, 7}));
}

TEST(IssueQueue, RemovingAWaitingOpOutOfAgeOrderPanics)
{
    IssueQueue iq(8, 8);
    iq.insert(0, -1, -1);
    iq.insert(1, 0, -1);
    iq.insert(2, 0, -1);
    EXPECT_DEATH(iq.remove(1), "out of age order");
}

TEST(IssueQueue, RejectsTinyCapacity)
{
    EXPECT_EXIT((IssueQueue{1, 8}), ::testing::ExitedWithCode(1), "");
}
