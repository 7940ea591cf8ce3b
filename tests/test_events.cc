/**
 * @file
 * Tests of EventCounts accounting, merge arithmetic and the
 * cross-event invariants a correct simulation must satisfy.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "harness/gather.hh"
#include "space/sampling.hh"
#include "uarch/core.hh"
#include "workload/spec_suite.hh"

using namespace adaptsim;
using namespace adaptsim::uarch;

TEST(EventCounts, MergeAddsEveryField)
{
    EventCounts a, b;
    a.cycles = 10;
    a.committedOps = 5;
    a.dcMisses = 2;
    a.stallHeadLoad = 7;
    a.occIqSum = 100;
    b.cycles = 3;
    b.committedOps = 1;
    b.dcMisses = 1;
    b.stallHeadLoad = 2;
    b.occIqSum = 11;
    a.merge(b);
    EXPECT_EQ(a.cycles, 13u);
    EXPECT_EQ(a.committedOps, 6u);
    EXPECT_EQ(a.dcMisses, 3u);
    EXPECT_EQ(a.stallHeadLoad, 9u);
    EXPECT_EQ(a.occIqSum, 111u);
}

TEST(EventCounts, IpcDerivation)
{
    EventCounts e;
    EXPECT_EQ(e.ipc(), 0.0);
    e.cycles = 100;
    e.committedOps = 250;
    EXPECT_NEAR(e.ipc(), 2.5, 1e-12);
}

namespace
{

constexpr std::uint64_t detailOps = 4000;

EventCounts
runBench(const std::string &bench, const CoreConfig &cc)
{
    const auto wl = workload::specBenchmark(bench, 100000);
    workload::WrongPathGenerator wp(wl.averageParams(),
                                    wl.seed() ^ 0x57a71cULL);
    Core core(cc, wp);
    core.warm(wl.generate(28000, 12000));
    return core.run(wl.generate(40000, detailOps)).events;
}

EventCounts
runBench(const std::string &bench)
{
    return runBench(bench, CoreConfig::fromConfiguration(
                               harness::paperBaselineConfig()));
}

/** The cross-event invariants of one run on core @p cc. */
void
expectInvariants(const EventCounts &e, const CoreConfig &cc)
{
    // Progress.
    EXPECT_EQ(e.committedOps, detailOps);
    EXPECT_EQ(e.fetchedOps, detailOps + e.wrongPathOps);
    EXPECT_LE(e.squashedOps, e.wrongPathOps);

    // Cache hierarchy: L2 traffic comes only from L1 misses;
    // memory traffic only from L2 misses.
    EXPECT_LE(e.l2Accesses, e.icMisses + e.dcMisses +
                                e.dcWritebacks);
    EXPECT_EQ(e.memAccesses, e.l2Misses);
    EXPECT_LE(e.dcMisses, e.dcAccesses);
    EXPECT_LE(e.icMisses, e.icAccesses);

    // Branch prediction: mispredicts are committed conditional
    // branches; BTB lookups happen per predictor lookup.
    EXPECT_LE(e.mispredicts, e.condBranches);
    EXPECT_LE(e.btbHits, e.btbLookups);
    EXPECT_EQ(e.btbLookups, e.bpredLookups);
    EXPECT_LE(e.bpredUpdates, e.bpredLookups);

    // Queues: everything issued entered the IQ; nothing issues
    // twice, and select never loses an op.
    EXPECT_LE(e.iqIssues, e.iqWrites);
    EXPECT_EQ(e.iqWrites, e.iqIssues + e.iqSquashed);
    // Every issued memory op was inserted into the LSQ, and an
    // insert ends either in an issue or a squash (an op that
    // issued and was then squashed counts in both).
    EXPECT_LE(e.memPortOps, e.lsqInserts);
    EXPECT_LE(e.lsqInserts, e.memPortOps + e.lsqSquashed);
    EXPECT_LE(e.lsqSquashed, e.lsqInserts);

    // Commit-stall attribution never exceeds total cycles.
    EXPECT_LE(e.stallHeadLoad + e.stallHeadStore +
                  e.stallHeadFp + e.stallHeadDiv +
                  e.stallHeadOther,
              e.cycles);

    // Occupancy integrals bounded by capacity × time.
    const auto cap = [&](int entries) {
        return e.cycles * static_cast<std::uint64_t>(entries);
    };
    EXPECT_LE(e.occRobSum, cap(cc.robSize));
    EXPECT_LE(e.occIqSum, cap(cc.iqSize));
    EXPECT_LE(e.occLsqSum, cap(cc.lsqSize));
    EXPECT_LE(e.occIntRfSum, cap(cc.rfSize));
    EXPECT_LE(e.occFpRfSum, cap(cc.rfSize));
}

} // namespace

TEST(EventInvariants, HoldAcrossWorkloads)
{
    const auto cc = CoreConfig::fromConfiguration(
        harness::paperBaselineConfig());
    for (const char *bench : {"gzip", "mcf", "swim", "parser",
                              "eon", "gcc"}) {
        SCOPED_TRACE(bench);
        expectInvariants(runBench(bench, cc), cc);
    }
}

TEST(EventInvariants, HoldOnRandomConfigurations)
{
    // Off the baseline the occupancy bounds come from each
    // configuration's own structure sizes.
    Rng rng(0xe7e4751ULL);
    for (int i = 0; i < 16; ++i) {
        const auto cfg = space::uniformRandom(rng);
        const auto cc = CoreConfig::fromConfiguration(cfg);
        for (const char *bench : {"mcf", "parser", "swim", "gcc"}) {
            SCOPED_TRACE(std::string(bench) + " " + cfg.toString());
            expectInvariants(runBench(bench, cc), cc);
        }
    }
}

TEST(EventInvariants, RfWritesMatchDestinations)
{
    const auto e = runBench("gap");
    // Every issued op with a destination writes the RF exactly once;
    // reads never exceed two per issue.
    EXPECT_LE(e.rfWrites, e.iqIssues);
    EXPECT_LE(e.rfReads, 2 * e.iqIssues);
}
