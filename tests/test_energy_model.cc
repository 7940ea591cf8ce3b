/**
 * @file
 * Tests of the Wattch-style event-driven energy model.
 */

#include <gtest/gtest.h>

#include "harness/gather.hh"
#include "power/energy_model.hh"

using namespace adaptsim;
using namespace adaptsim::power;

namespace
{

uarch::CoreConfig
baseCc()
{
    return uarch::CoreConfig::fromConfiguration(
        harness::paperBaselineConfig());
}

uarch::EventCounts
someEvents()
{
    uarch::EventCounts ev;
    ev.cycles = 10000;
    ev.committedOps = 6000;
    ev.icAccesses = 2000;
    ev.dcAccesses = 1500;
    ev.dcMisses = 100;
    ev.l2Accesses = 120;
    ev.l2Misses = 30;
    ev.memAccesses = 30;
    ev.rfReads = 9000;
    ev.rfWrites = 5000;
    ev.robWrites = 6000;
    ev.robReads = 6000;
    ev.iqWrites = 6000;
    ev.iqIssues = 6000;
    ev.iqWakeups = 40000;
    ev.lsqInserts = 1700;
    ev.lsqSearches = 8000;
    ev.bpredLookups = 1200;
    ev.bpredUpdates = 1100;
    ev.btbLookups = 1200;
    ev.aluOps = 4000;
    ev.fpOps = 500;
    ev.memPortOps = 1700;
    return ev;
}

} // namespace

TEST(EnergyModel, MoreEventsMoreEnergy)
{
    const EnergyModel model(baseCc());
    auto ev = someEvents();
    const double base = model.evaluate(ev).totalJ();
    ev.dcAccesses *= 2;
    ev.aluOps *= 2;
    const double more = model.evaluate(ev).totalJ();
    EXPECT_GT(more, base);
}

TEST(EnergyModel, LeakageScalesWithTime)
{
    const EnergyModel model(baseCc());
    auto ev = someEvents();
    const double leak1 = model.evaluate(ev).leakageJ;
    ev.cycles *= 3;
    const double leak3 = model.evaluate(ev).leakageJ;
    EXPECT_NEAR(leak3 / leak1, 3.0, 1e-9);
}

TEST(EnergyModel, BiggerCachesLeakMore)
{
    auto big_cfg = harness::paperBaselineConfig();
    big_cfg.setValue(space::Param::L2CacheSize, 4 * 1024 * 1024);
    auto small_cfg = harness::paperBaselineConfig();
    small_cfg.setValue(space::Param::L2CacheSize, 256 * 1024);
    const auto ev = someEvents();
    const auto leakageWatts = [&](const space::Configuration &c) {
        const auto cc = uarch::CoreConfig::fromConfiguration(c);
        return EnergyModel(cc).evaluate(ev).leakageJ /
               (double(ev.cycles) * cc.clockPeriodSec);
    };
    EXPECT_GT(leakageWatts(big_cfg), leakageWatts(small_cfg));
}

TEST(EnergyModel, PortHeavyRegFileCostsMore)
{
    auto heavy_cfg = harness::paperBaselineConfig();
    heavy_cfg.setValue(space::Param::RfRdPorts, 16);
    heavy_cfg.setValue(space::Param::RfWrPorts, 8);
    const EnergyModel heavy(
        uarch::CoreConfig::fromConfiguration(heavy_cfg));
    const EnergyModel light(baseCc());
    const auto ev = someEvents();
    const auto h = heavy.evaluate(ev);
    const auto l = light.evaluate(ev);
    const auto rf = static_cast<std::size_t>(Structure::RegFile);
    EXPECT_GT(h.dynamicJ[rf], l.dynamicJ[rf]);
}

TEST(EnergyModel, BreakdownSumsToTotal)
{
    const EnergyModel model(baseCc());
    const auto b = model.evaluate(someEvents());
    double sum = 0.0;
    for (double j : b.dynamicJ)
        sum += j;
    EXPECT_NEAR(b.totalDynamicJ(), sum, 1e-15);
    EXPECT_NEAR(b.totalJ(), sum + b.leakageJ, 1e-15);
}

TEST(EnergyModel, PlausibleWattsForBaseline)
{
    // A busy baseline core should land in a single-digit-to-tens of
    // watts range at "90nm", not milliwatts or kilowatts.
    const auto cc = baseCc();
    const EnergyModel model(cc);
    const auto ev = someEvents();
    const auto b = model.evaluate(ev);
    const double seconds = double(ev.cycles) * cc.clockPeriodSec;
    const double watts = b.totalJ() / seconds;
    EXPECT_GT(watts, 1.0);
    EXPECT_LT(watts, 120.0);
}
