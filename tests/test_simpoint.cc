/**
 * @file
 * Tests of SimPoint-style phase extraction.
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "phase/simpoint.hh"
#include "workload/spec_suite.hh"

using namespace adaptsim;
using namespace adaptsim::phase;

TEST(SimPoint, ExtractsAtMostMaxPhases)
{
    const auto wl = workload::specBenchmark("gap", 200000);
    SimPointOptions opt;
    opt.intervalLength = 5000;
    opt.maxPhases = 10;
    const auto phases = extractPhases(wl, opt);
    EXPECT_GE(phases.size(), 2u);
    EXPECT_LE(phases.size(), 10u);
}

TEST(SimPoint, WeightsSumToOne)
{
    const auto wl = workload::specBenchmark("vpr", 200000);
    SimPointOptions opt;
    opt.intervalLength = 5000;
    const auto phases = extractPhases(wl, opt);
    double total = 0.0;
    for (const auto &p : phases)
        total += p.weight;
    EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(SimPoint, PhasesOrderedAndAligned)
{
    const auto wl = workload::specBenchmark("gcc", 200000);
    SimPointOptions opt;
    opt.intervalLength = 4000;
    const auto phases = extractPhases(wl, opt);
    std::uint64_t prev = 0;
    for (std::size_t i = 0; i < phases.size(); ++i) {
        EXPECT_EQ(phases[i].index, i);
        EXPECT_EQ(phases[i].startInst % opt.intervalLength, 0u);
        EXPECT_EQ(phases[i].lengthInsts, opt.intervalLength);
        if (i > 0) {
            EXPECT_GT(phases[i].startInst, prev);
        }
        prev = phases[i].startInst;
        EXPECT_EQ(phases[i].workload, "gcc");
    }
}

TEST(SimPoint, Deterministic)
{
    const auto wl = workload::specBenchmark("mesa", 200000);
    SimPointOptions opt;
    opt.intervalLength = 5000;
    const auto a = extractPhases(wl, opt);
    const auto b = extractPhases(wl, opt);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].startInst, b[i].startInst);
        EXPECT_NEAR(a[i].weight, b[i].weight, 1e-12);
    }
}

TEST(SimPoint, MultiSegmentProgramsYieldMultiplePhases)
{
    // gap has four very different behaviour segments; with enough
    // intervals the extractor must find at least 3 phases.
    const auto wl = workload::specBenchmark("gap", 400000);
    SimPointOptions opt;
    opt.intervalLength = 5000;
    opt.maxPhases = 10;
    const auto phases = extractPhases(wl, opt);
    EXPECT_GE(phases.size(), 3u);
}

TEST(SimPoint, IntervalBbvCount)
{
    const auto wl = workload::specBenchmark("eon", 100000);
    const auto bbvs = intervalBbvs(wl, 10000);
    EXPECT_EQ(bbvs.size(), 10u);
    for (const auto &b : bbvs)
        EXPECT_EQ(b.opCount(), 10000u);
}

TEST(SimPoint, IntervalBbvsMatchSerialReference)
{
    // Programs that repeat kernels, an interval length that divides
    // neither the program nor its segments (so intervals straddle
    // segment ends and the tail is dropped): the per-segment walk
    // must rebuild every interval's BBV bit for bit, whatever the
    // worker count.
    constexpr std::uint64_t kLength = 400000;
    constexpr std::uint64_t kInterval = 7000;
    const char *const thread_counts[] = {"1", "3", nullptr};
    for (const char *program : {"galgel", "equake", "apsi"}) {
        const auto wl = workload::specBenchmark(program, kLength);
        std::size_t straddling = 0;
        std::uint64_t seg_end = 0;
        for (const auto &seg : wl.segments()) {
            seg_end += seg.length;
            straddling += seg_end % kInterval != 0 &&
                          seg_end < kLength / kInterval * kInterval;
        }
        EXPECT_GE(straddling, 2u) << program;

        std::vector<Bbv> reference;
        for (std::uint64_t i = 0; i < kLength / kInterval; ++i) {
            reference.push_back(Bbv::ofTrace(
                wl.generate(i * kInterval, kInterval)));
        }
        for (const char *threads : thread_counts) {
            if (threads)
                setenv("ADAPTSIM_THREADS", threads, 1);
            else
                unsetenv("ADAPTSIM_THREADS");
            const auto bbvs = intervalBbvs(wl, kInterval);
            ASSERT_EQ(bbvs.size(), reference.size());
            for (std::size_t i = 0; i < bbvs.size(); ++i) {
                EXPECT_EQ(bbvs[i].values(), reference[i].values())
                    << program << " interval " << i << " threads "
                    << (threads ? threads : "unset");
                EXPECT_EQ(bbvs[i].opCount(), reference[i].opCount());
            }
        }
    }
    unsetenv("ADAPTSIM_THREADS");
}

TEST(SimPoint, TooShortProgramIsFatal)
{
    const auto wl = workload::specBenchmark("eon", 20000);
    SimPointOptions opt;
    opt.intervalLength = 1u << 20;
    EXPECT_EXIT((void)extractPhases(wl, opt),
                ::testing::ExitedWithCode(1), "");
}
