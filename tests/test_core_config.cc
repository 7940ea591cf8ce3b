/**
 * @file
 * Tests of the derived core configuration (timing parameters).
 */

#include <gtest/gtest.h>

#include "harness/gather.hh"
#include "uarch/core_config.hh"

using namespace adaptsim;
using namespace adaptsim::uarch;

TEST(CoreConfig, FromConfigurationCopiesRawValues)
{
    const auto cc = CoreConfig::fromConfiguration(
        harness::paperBaselineConfig());
    EXPECT_EQ(cc.width, 4);
    EXPECT_EQ(cc.robSize, 144);
    EXPECT_EQ(cc.iqSize, 48);
    EXPECT_EQ(cc.lsqSize, 32);
    EXPECT_EQ(cc.rfSize, 160);
    EXPECT_EQ(cc.gshareEntries, 16384);
    EXPECT_EQ(cc.depthFo4, 12);
    EXPECT_EQ(cc.icacheBytes, 64u * 1024);
}

TEST(CoreConfig, DeeperPipelineIsFasterClock)
{
    auto shallow = harness::paperBaselineConfig();
    shallow.setValue(space::Param::Depth, 36);
    auto deep = harness::paperBaselineConfig();
    deep.setValue(space::Param::Depth, 9);

    const auto s = CoreConfig::fromConfiguration(shallow);
    const auto d = CoreConfig::fromConfiguration(deep);
    EXPECT_GT(d.clockHz, s.clockHz);
    EXPECT_GT(d.numStages, s.numStages);
    EXPECT_GT(d.frontendDelay, s.frontendDelay);
    // DRAM latency in cycles grows with clock frequency.
    EXPECT_GT(d.memLatency, s.memLatency);
}

TEST(CoreConfig, BiggerCachesAreSlower)
{
    auto small = harness::paperBaselineConfig();
    small.setValue(space::Param::DCacheSize, 8 * 1024);
    auto big = harness::paperBaselineConfig();
    big.setValue(space::Param::DCacheSize, 128 * 1024);
    const auto s = CoreConfig::fromConfiguration(small);
    const auto b = CoreConfig::fromConfiguration(big);
    EXPECT_LE(s.dcacheLatency, b.dcacheLatency);
    EXPECT_GE(b.l2Latency, b.dcacheLatency);
    EXPECT_GT(b.memLatency, b.l2Latency);
}

TEST(CoreConfig, FuCountsScaleWithWidth)
{
    auto cfg = harness::paperBaselineConfig();
    cfg.setValue(space::Param::Width, 8);
    const auto cc = CoreConfig::fromConfiguration(cfg);
    EXPECT_EQ(cc.numAlu, 8);
    EXPECT_EQ(cc.numMemPorts, 4);
    EXPECT_EQ(cc.numFpu, 4);
    EXPECT_EQ(cc.numMul, 2);

    cfg.setValue(space::Param::Width, 2);
    const auto cc2 = CoreConfig::fromConfiguration(cfg);
    EXPECT_EQ(cc2.numAlu, 2);
    EXPECT_EQ(cc2.numMemPorts, 1);
    EXPECT_EQ(cc2.numMul, 1);
}

TEST(CoreConfig, ToStringIsCompact)
{
    const auto cc = CoreConfig::fromConfiguration(
        harness::paperBaselineConfig());
    const auto s = cc.toString();
    EXPECT_NE(s.find("w4"), std::string::npos);
    EXPECT_NE(s.find("rob144"), std::string::npos);
    EXPECT_NE(s.find("l21024K"), std::string::npos);
}

/** Property sweep: every depth value derives a consistent clock. */
class DepthSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(DepthSweep, DerivedValuesConsistent)
{
    auto cfg = harness::paperBaselineConfig();
    cfg.setValue(space::Param::Depth, GetParam());
    const auto cc = CoreConfig::fromConfiguration(cfg);
    EXPECT_NEAR(cc.clockHz * cc.clockPeriodSec, 1.0, 1e-9);
    EXPECT_GE(cc.numStages, 5);
    EXPECT_GE(cc.frontendDelay, 2);
    EXPECT_LE(cc.frontendDelay, cc.numStages);
    EXPECT_GE(cc.icacheLatency, 1);
    EXPECT_GE(cc.l2Latency, cc.dcacheLatency);
    EXPECT_GE(cc.memLatency, 20);
}

INSTANTIATE_TEST_SUITE_P(TableOneDepths, DepthSweep,
                         ::testing::Values(9, 12, 15, 18, 21, 24, 27,
                                           30, 33, 36));
