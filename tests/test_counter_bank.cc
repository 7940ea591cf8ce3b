/**
 * @file
 * Integration tests of the full counter bank attached to a profiling
 * run.
 */

#include <gtest/gtest.h>

#include "counters/counter_bank.hh"
#include "counters/feature_vector.hh"
#include "histogram_total.hh"
#include "uarch/core.hh"
#include "workload/spec_suite.hh"

using namespace adaptsim;
using namespace adaptsim::counters;
using adaptsim::test::histogramTotal;

namespace
{

CounterBank
profileBench(const std::string &bench,
             const SamplingSpec &sampling = {})
{
    const auto wl = workload::specBenchmark(bench, 100000);
    workload::WrongPathGenerator wp(wl.averageParams(),
                                    wl.seed() ^ 0x57a71cULL);
    const auto cc = uarch::CoreConfig::fromConfiguration(
        space::Configuration::profiling());
    uarch::Core core(cc, wp);
    core.warm(wl.generate(32000, 8000));
    CounterBank bank(cc, sampling);
    const auto result = core.run(wl.generate(40000, 4000), &bank);
    bank.finalise(result.events);
    return bank;
}

} // namespace

TEST(CounterBank, OccupancyHistogramsCoverEveryCycle)
{
    const auto bank = profileBench("gzip");
    const auto cycles = bank.events().cycles;
    EXPECT_EQ(histogramTotal(bank.robUsage().raw()), cycles);
    EXPECT_EQ(histogramTotal(bank.iqUsage().raw()), cycles);
    EXPECT_EQ(histogramTotal(bank.lsqUsage().raw()), cycles);
    EXPECT_EQ(histogramTotal(bank.aluUsage().raw()), cycles);
    EXPECT_EQ(histogramTotal(bank.intRegUsage().raw()), cycles);
}

TEST(CounterBank, ScalarsInRange)
{
    const auto bank = profileBench("parser");
    EXPECT_GT(bank.cpi(), 0.0);
    EXPECT_GE(bank.branchMispredRate(), 0.0);
    EXPECT_LE(bank.branchMispredRate(), 1.0);
    EXPECT_GE(bank.btbHitRate(), 0.0);
    EXPECT_LE(bank.btbHitRate(), 1.0);
    EXPECT_GE(bank.iqSpecFrac(), 0.0);
    EXPECT_LE(bank.iqSpecFrac(), 1.0);
    EXPECT_GE(bank.lsqSpecFrac(), 0.0);
    EXPECT_LE(bank.lsqSpecFrac(), 1.0);
    EXPECT_GE(bank.lsqMisSpecFrac(), 0.0);
    EXPECT_LE(bank.lsqMisSpecFrac(), 1.0);
}

TEST(CounterBank, BranchyCodeShowsMoreMisSpeculation)
{
    const auto parser = profileBench("parser");
    const auto swim = profileBench("swim");
    EXPECT_GT(parser.branchMispredRate(),
              swim.branchMispredRate());
    EXPECT_GT(parser.lsqMisSpecFrac(), swim.lsqMisSpecFrac());
}

TEST(CounterBank, MemoryBoundCodeHasLongL2Distances)
{
    const auto mcf = profileBench("mcf");
    const auto eon = profileBench("eon");
    // mcf's working set dwarfs eon's: mean dcache stack distance
    // must be much larger.
    EXPECT_GT(mcf.dcStack().histogram().mean(),
              4.0 * eon.dcStack().histogram().mean());
}

TEST(CounterBank, CacheMonitorsSeeAccesses)
{
    const auto bank = profileBench("gcc");
    EXPECT_GT(bank.icStack().accesses(), 0u);
    EXPECT_GT(bank.dcStack().accesses(), 0u);
    EXPECT_GT(bank.btbReuse().accesses(), 0u);
    // Reduced geometry sees the same stream as native set monitor.
    EXPECT_EQ(histogramTotal(bank.dcReducedSetReuse().histogram()) > 0,
              true);
}

TEST(CounterBank, SamplingReducesMonitoredAccesses)
{
    SamplingSpec sampling;
    sampling.dcBlockReuse = 4;   // of 1024 native sets
    const auto full = profileBench("swim");
    const auto sampled = profileBench("swim", sampling);
    EXPECT_LT(sampled.dcBlockReuse().accesses(),
              full.dcBlockReuse().accesses() / 32);
    // Other monitors unaffected.
    EXPECT_EQ(sampled.dcStack().accesses(),
              full.dcStack().accesses());
}

TEST(CounterBank, FpCodeUsesFpRegisters)
{
    const auto swim = profileBench("swim");
    const auto crafty = profileBench("crafty");
    EXPECT_GT(swim.fpRegUsage().meanUsage(),
              crafty.fpRegUsage().meanUsage());
}

TEST(CounterBank, RepeatedSampleEqualsRepeatedCalls)
{
    // The pipeline reports k identical cycles as one onCycle call
    // with repeat k; the bank must record exactly what k calls with
    // repeat 1 record.
    const auto cc = uarch::CoreConfig::fromConfiguration(
        space::Configuration::profiling());
    CounterBank merged(cc);
    CounterBank split(cc);
    std::uint64_t cycles = 0;
    for (std::uint32_t i = 0; i < 40; ++i) {
        uarch::CycleSample s;
        s.robOcc = 1 + (i * 37) % 144;
        s.iqOcc = 1 + (i * 11) % 48;
        s.lsqOcc = 1 + (i * 7) % 32;
        s.intRegsUsed = 1 + (i * 29) % 160;
        s.fpRegsUsed = 1 + (i * 13) % 160;
        s.rdPortsUsed = 1 + i % 8;
        s.wrPortsUsed = 1 + i % 4;
        s.aluUsed = 1 + i % 6;
        s.memPortsUsed = 1 + i % 2;
        s.fpUnitsUsed = 1 + i % 3;
        s.iqSpecOps = s.iqOcc / 2;
        s.lsqSpecOps = s.lsqOcc / 3;
        const std::uint64_t k = 1 + (i * 53) % 97;
        merged.onCycle(s, k);
        for (std::uint64_t j = 0; j < k; ++j)
            split.onCycle(s, 1);
        cycles += k;
    }

    uarch::EventCounts ev;
    ev.cycles = cycles;
    ev.committedOps = cycles / 2;
    ev.condBranches = 300;
    ev.mispredicts = 17;
    ev.btbLookups = 400;
    ev.btbHits = 350;
    ev.iqWrites = 1000;
    ev.iqSquashed = 90;
    ev.lsqInserts = 500;
    ev.lsqSquashed = 40;
    merged.finalise(ev);
    split.finalise(ev);

    for (const auto set : {FeatureSet::Basic, FeatureSet::Advanced}) {
        EXPECT_EQ(assembleFeatures(merged, set),
                  assembleFeatures(split, set))
            << featureSetName(set);
    }
    EXPECT_EQ(histogramTotal(merged.robUsage().raw()), cycles);
}
