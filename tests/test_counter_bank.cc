/**
 * @file
 * Integration tests of the full counter bank attached to a profiling
 * run.
 */

#include <gtest/gtest.h>

#include "counters/counter_bank.hh"
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
