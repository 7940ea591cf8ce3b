/**
 * @file
 * Tests of configuration encoding, decoding and the profiling point.
 */

#include <gtest/gtest.h>

#include <set>

#include "common/rng.hh"
#include "space/configuration.hh"
#include "space/sampling.hh"

using namespace adaptsim;
using namespace adaptsim::space;

TEST(Configuration, DefaultIsAllMinimums)
{
    Configuration cfg;
    const auto &ds = DesignSpace::the();
    for (auto p : allParams())
        EXPECT_EQ(cfg.value(p), ds.value(p, 0));
}

TEST(Configuration, SetAndGetValue)
{
    Configuration cfg;
    cfg.setValue(Param::Width, 6);
    EXPECT_EQ(cfg.value(Param::Width), 6u);
    EXPECT_EQ(cfg.index(Param::Width), 2u);
}

TEST(Configuration, EncodeDecodeRoundTripsRandomly)
{
    Rng rng(2024);
    for (int i = 0; i < 500; ++i) {
        const Configuration cfg = uniformRandom(rng);
        EXPECT_EQ(Configuration::decode(cfg.encode()), cfg);
    }
}

TEST(Configuration, EncodeIsInjectiveOnSamples)
{
    Rng rng(7);
    std::set<std::uint64_t> codes;
    for (int i = 0; i < 300; ++i)
        codes.insert(uniformRandom(rng).encode());
    // 300 uniform draws from 627bn points collide with ~0 probability.
    EXPECT_EQ(codes.size(), 300u);
}

TEST(Configuration, ProfilingUsesLargestStructures)
{
    const auto prof = Configuration::profiling();
    const auto &ds = DesignSpace::the();
    EXPECT_EQ(prof.value(Param::Width), 8u);
    EXPECT_EQ(prof.value(Param::RobSize), 160u);
    EXPECT_EQ(prof.value(Param::IqSize), 80u);
    EXPECT_EQ(prof.value(Param::LsqSize), 80u);
    EXPECT_EQ(prof.value(Param::RfSize), 160u);
    EXPECT_EQ(prof.value(Param::GshareSize), 32768u);
    EXPECT_EQ(prof.value(Param::MaxBranches), 32u);
    EXPECT_EQ(prof.value(Param::ICacheSize),
              ds.value(Param::ICacheSize,
                       ds.numValues(Param::ICacheSize) - 1));
    // Depth is pinned to mid-range, not the extreme.
    EXPECT_EQ(prof.value(Param::Depth), 12u);
}

TEST(Configuration, FromValuesMatchesTable3)
{
    const auto cfg = Configuration::fromValues(
        {4, 144, 48, 32, 160, 4, 1, 16384, 1024, 24, 65536, 32768,
         1048576, 12});
    EXPECT_EQ(cfg.value(Param::Width), 4u);
    EXPECT_EQ(cfg.value(Param::RobSize), 144u);
    EXPECT_EQ(cfg.value(Param::L2CacheSize), 1048576u);
}

TEST(Configuration, ToStringMentionsEveryParameter)
{
    const auto s = Configuration::profiling().toString();
    const auto &ds = DesignSpace::the();
    for (auto p : allParams())
        EXPECT_NE(s.find(ds.name(p)), std::string::npos);
}

TEST(Configuration, Equality)
{
    Configuration a, b;
    EXPECT_EQ(a, b);
    b.setValue(Param::Width, 8);
    EXPECT_NE(a, b);
}
