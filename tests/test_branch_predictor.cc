/**
 * @file
 * Tests of the gshare + BTB branch predictor.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "uarch/branch_predictor.hh"

using namespace adaptsim;
using adaptsim::uarch::BranchPredictor;

TEST(BranchPredictor, LearnsBiasedBranch)
{
    BranchPredictor bp(4096, 1024, 4);
    const Addr pc = 0x400010;
    // Train always-taken.
    for (int i = 0; i < 16; ++i)
        bp.warm(pc, true);
    int correct = 0;
    for (int i = 0; i < 100; ++i) {
        const auto pred = bp.predict(pc);
        correct += pred.taken;
        bp.update(pc, true, pred.history);
    }
    EXPECT_GT(correct, 95);
}

TEST(BranchPredictor, LearnsShortLoopPattern)
{
    BranchPredictor bp(16384, 1024, 4);
    const Addr pc = 0x400020;
    auto outcome = [](int i) { return i % 4 != 3; };   // TTTN
    for (int i = 0; i < 4000; ++i)
        bp.warm(pc, outcome(i));
    int correct = 0;
    const int n = 400;
    for (int i = 0; i < n; ++i) {
        const auto pred = bp.predict(pc);
        const bool actual = outcome(i);
        correct += pred.taken == actual;
        if (pred.taken != actual)
            bp.recover(pred.history, actual);
        bp.update(pc, actual, pred.history);
    }
    EXPECT_GT(correct, n * 9 / 10);
}

TEST(BranchPredictor, BtbHitsAfterTakenUpdate)
{
    BranchPredictor bp(1024, 1024, 4);
    const Addr pc = 0x400040;
    EXPECT_FALSE(bp.predict(pc).btbHit);
    bp.update(pc, true, 0);
    EXPECT_TRUE(bp.predict(pc).btbHit);
}

TEST(BranchPredictor, NotTakenBranchesDontAllocateBtb)
{
    BranchPredictor bp(1024, 1024, 4);
    const Addr pc = 0x400050;
    for (int i = 0; i < 8; ++i)
        bp.update(pc, false, 0);
    EXPECT_FALSE(bp.predict(pc).btbHit);
}

TEST(BranchPredictor, BtbCapacityEviction)
{
    // 64-entry, 4-way BTB: 65 distinct taken branches in one set
    // region must cause evictions; far-apart PCs map to many sets so
    // fill the whole BTB.
    BranchPredictor bp(1024, 64, 4);
    for (Addr pc = 0x1000; pc < 0x1000 + 4 * 200; pc += 4)
        bp.update(pc, true, 0);
    // The oldest entries should be gone.
    int hits = 0;
    for (Addr pc = 0x1000; pc < 0x1000 + 4 * 16; pc += 4)
        hits += bp.predict(pc).btbHit;
    EXPECT_LT(hits, 16);
}

TEST(BranchPredictor, HistoryRecovery)
{
    BranchPredictor bp(4096, 1024, 4);
    // Make some predictions to move the speculative history.
    const auto p1 = bp.predict(0x100);
    (void)bp.predict(0x104);
    (void)bp.predict(0x108);
    // Squash back to the first branch, resolving it taken: history
    // must be the pre-branch history with exactly one appended bit
    // (10-bit history for a 4K-entry PHT).
    bp.recover(p1.history, true);
    EXPECT_EQ(bp.history(), ((p1.history << 1) | 1u) & 0x3ffu);
}

TEST(BranchPredictor, WarmMatchesPredictUpdateLoop)
{
    // warm() must leave the same PHT/BTB state as a correct
    // predict+update loop with no mispredict recovery.
    BranchPredictor warmed(4096, 1024, 4);
    BranchPredictor loop(4096, 1024, 4);
    Rng rng(3);
    for (int i = 0; i < 500; ++i) {
        const Addr pc = 0x2000 + 4 * rng.nextBounded(32);
        const bool taken = rng.nextBool(0.7);
        warmed.warm(pc, taken);
        const auto pred = loop.predict(pc);
        if (pred.taken != taken)
            loop.recover(pred.history, taken);
        loop.update(pc, taken, pred.history);
    }
    // Equal subsequent predictions on every trained pc.
    for (Addr pc = 0x2000; pc < 0x2000 + 4 * 32; pc += 4)
        EXPECT_EQ(warmed.predict(pc).taken, loop.predict(pc).taken);
}

TEST(BranchPredictor, RejectsNonPowerOfTwo)
{
    EXPECT_EXIT((BranchPredictor{1000, 1024, 4}),
                ::testing::ExitedWithCode(1), "");
    EXPECT_EXIT((BranchPredictor{1024, 96, 4}),
                ::testing::ExitedWithCode(1), "");
}

/** Property sweep: every legal gshare/BTB geometry constructs and
 *  predicts without faulting. */
class PredictorGeometry
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(PredictorGeometry, ConstructsAndRuns)
{
    const auto [gshare, btb] = GetParam();
    BranchPredictor bp(gshare, btb, 4);
    for (int i = 0; i < 200; ++i) {
        const Addr pc = 0x1000 + 4 * (i % 37);
        const auto pred = bp.predict(pc);
        bp.update(pc, i % 3 != 0, pred.history);
    }
    SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(
    TableOne, PredictorGeometry,
    ::testing::Combine(::testing::Values(1024, 2048, 4096, 8192,
                                         16384, 32768),
                       ::testing::Values(1024, 2048, 4096)));
