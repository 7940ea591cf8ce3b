/**
 * @file
 * Tests of the workload (kernel schedule) abstraction.
 */

#include <gtest/gtest.h>

#include "workload/spec_suite.hh"
#include "workload/workload.hh"

using namespace adaptsim;
using namespace adaptsim::workload;

namespace
{

KernelParams
kernelNamed(const std::string &name, double frac_load)
{
    KernelParams k;
    k.name = name;
    k.fracLoad = frac_load;
    k.numBlocks = 16;
    k.blockSize = 6;
    return k;
}

Workload
makeWorkload()
{
    return Workload("testwl",
                    {{kernelNamed("A", 0.1), 10000},
                     {kernelNamed("B", 0.4), 20000},
                     {kernelNamed("A", 0.1), 10000}},
                    99);
}

} // namespace

TEST(Workload, TotalLength)
{
    EXPECT_EQ(makeWorkload().totalInstructions(), 40000u);
}

TEST(Workload, GenerateWindowsAreConsistent)
{
    const auto wl = makeWorkload();
    const auto full = wl.generate(0, 1000);
    const auto tail = wl.generate(500, 500);
    for (std::size_t i = 0; i < 500; ++i)
        EXPECT_TRUE(full[500 + i] == tail[i]) << i;
}

TEST(Workload, CrossSegmentGeneration)
{
    const auto wl = makeWorkload();
    const auto window = wl.generate(9500, 1000);   // spans A → B
    EXPECT_EQ(window.size(), 1000u);
    // Segment A's kernel id is 0, B's is 1.
    EXPECT_EQ(window.front().bbId >> 16, 0u);
    EXPECT_EQ(window.back().bbId >> 16, 1u);
}

TEST(Workload, RepeatedKernelReplaysSameCode)
{
    const auto wl = makeWorkload();
    // Segment 0 (A) and segment 2 (A again) replay identical µops.
    const auto first = wl.generate(0, 200);
    const auto repeat = wl.generate(30000, 200);
    EXPECT_TRUE(first == repeat);
}

TEST(Workload, WrapsAroundEnd)
{
    const auto wl = makeWorkload();
    const auto wrapped = wl.generate(39990, 20);
    const auto head = wl.generate(0, 10);
    for (std::size_t i = 0; i < 10; ++i)
        EXPECT_TRUE(wrapped[10 + i] == head[i]) << i;
}

TEST(Workload, CursorWalkMatchesColdGenerationOnSuite)
{
    // Differential check of the resumable cursor against cold
    // generation (fresh kernel + skip) on every program, at an
    // aligned and an unaligned interval.  Intervals straddle
    // segment boundaries, and the walk runs past the end to wrap.
    for (const auto &name : specNames()) {
        const auto wl = specBenchmark(name, 60000);
        for (const std::uint64_t interval : {5000u, 4999u}) {
            Workload::Cursor cursor;
            const std::uint64_t n =
                wl.totalInstructions() / interval + 2;
            for (std::uint64_t i = 0; i < n; ++i) {
                const auto walked =
                    wl.generate(i * interval, interval, cursor);
                ASSERT_TRUE(walked ==
                            wl.generate(i * interval, interval))
                    << name << " interval " << interval << " #" << i;
            }
            // A sequential walk from 0 only ever (re)starts kernels
            // at segment starts: nothing is replayed.
            EXPECT_EQ(cursor.skipped, 0u) << name;
        }
    }
}

TEST(Workload, CursorCrossesIntoRepeatedKernel)
{
    // [29000, 31000) runs from B into the second A segment, which
    // must restart A's stream rather than continue anything.
    const auto wl = makeWorkload();
    Workload::Cursor cursor;
    for (std::uint64_t start = 0; start < 29000; start += 1000)
        (void)wl.generate(start, 1000, cursor);
    const auto window = wl.generate(29000, 2000, cursor);
    EXPECT_TRUE(window == wl.generate(29000, 2000));
    const std::vector<isa::MicroOp> a_part(window.begin() + 1000,
                                           window.end());
    EXPECT_TRUE(a_part == wl.generate(0, 1000));
    EXPECT_EQ(cursor.skipped, 0u);
}

TEST(Workload, CursorWrapsPastTheEnd)
{
    const auto wl = makeWorkload();
    Workload::Cursor cursor;
    for (std::uint64_t start = 0; start < 39000; start += 3000)
        (void)wl.generate(start, 3000, cursor);
    // [39000, 42000) wraps into segment 0.
    EXPECT_TRUE(wl.generate(39000, 3000, cursor) ==
                wl.generate(39000, 3000));
    EXPECT_TRUE(wl.generate(42000, 3000, cursor) ==
                wl.generate(2000, 3000));
    EXPECT_EQ(cursor.skipped, 0u);
}

TEST(Workload, CursorBackwardsJumpReseeks)
{
    const auto wl = makeWorkload();
    Workload::Cursor cursor;
    (void)wl.generate(10000, 5000, cursor);   // into B, up to 15000
    const auto back = wl.generate(12000, 1000, cursor);
    EXPECT_TRUE(back == wl.generate(12000, 1000));
    // The reseek replays B from its start (10000) to 12000.
    EXPECT_EQ(cursor.skipped, 2000u);
    // ...after which the walk resumes again.
    EXPECT_TRUE(wl.generate(13000, 1000, cursor) ==
                wl.generate(13000, 1000));
    EXPECT_EQ(cursor.skipped, 2000u);
}

TEST(Workload, CursorDoesNotResumeAnotherWorkload)
{
    // Same name and schedule shape, different seed: a cursor left
    // mid-segment on one must not continue into the other.
    const auto wl = makeWorkload();
    const Workload other("testwl",
                         {{kernelNamed("A", 0.1), 10000},
                          {kernelNamed("B", 0.4), 20000},
                          {kernelNamed("A", 0.1), 10000}},
                         100);
    EXPECT_NE(wl.uid(), other.uid());
    Workload::Cursor cursor;
    (void)wl.generate(0, 5000, cursor);
    const auto got = other.generate(5000, 1000, cursor);
    EXPECT_TRUE(got == other.generate(5000, 1000));
    EXPECT_FALSE(got == wl.generate(5000, 1000));
    EXPECT_EQ(cursor.skipped, 5000u);
}

TEST(Workload, UidCoversSeedLengthAndKernels)
{
    const auto base = specBenchmark("gcc", 400000, 1);
    EXPECT_EQ(base.uid(), specBenchmark("gcc", 400000, 1).uid());
    EXPECT_NE(base.uid(), specBenchmark("gcc", 400000, 2).uid());
    EXPECT_NE(base.uid(), specBenchmark("gcc", 100000, 1).uid());
    KernelParams heavier = kernelNamed("A", 0.3);
    EXPECT_NE(makeWorkload().uid(),
              Workload("testwl",
                       {{heavier, 10000},
                        {kernelNamed("B", 0.4), 20000},
                        {heavier, 10000}},
                       99)
                  .uid());
}

TEST(Workload, AverageParamsIsLengthWeighted)
{
    const auto wl = makeWorkload();
    const auto avg = wl.averageParams();
    // 20k ops at 0.1 + 20k at 0.4 → 0.25.
    EXPECT_NEAR(avg.fracLoad, 0.25, 1e-12);
}

TEST(Workload, RejectsEmptySchedules)
{
    EXPECT_EXIT((Workload{"bad", {}, 1}),
                ::testing::ExitedWithCode(1), "");
}

TEST(Workload, RejectsZeroLengthSegments)
{
    EXPECT_EXIT((Workload{"bad",
                          {{kernelNamed("A", 0.1), 0}},
                          1}),
                ::testing::ExitedWithCode(1), "");
}
