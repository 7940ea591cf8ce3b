/**
 * @file
 * Tests that the design space matches Table I exactly.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "space/design_space.hh"

using namespace adaptsim::space;

TEST(DesignSpace, ParameterCounts)
{
    const auto &ds = DesignSpace::the();
    EXPECT_EQ(ds.numValues(Param::Width), 4u);
    EXPECT_EQ(ds.numValues(Param::RobSize), 17u);
    EXPECT_EQ(ds.numValues(Param::IqSize), 10u);
    EXPECT_EQ(ds.numValues(Param::LsqSize), 10u);
    EXPECT_EQ(ds.numValues(Param::RfSize), 16u);
    EXPECT_EQ(ds.numValues(Param::RfRdPorts), 8u);
    EXPECT_EQ(ds.numValues(Param::RfWrPorts), 8u);
    EXPECT_EQ(ds.numValues(Param::GshareSize), 6u);
    EXPECT_EQ(ds.numValues(Param::BtbSize), 3u);
    EXPECT_EQ(ds.numValues(Param::MaxBranches), 4u);
    EXPECT_EQ(ds.numValues(Param::ICacheSize), 5u);
    EXPECT_EQ(ds.numValues(Param::DCacheSize), 5u);
    EXPECT_EQ(ds.numValues(Param::L2CacheSize), 5u);
    EXPECT_EQ(ds.numValues(Param::Depth), 10u);
}

TEST(DesignSpace, TotalPointsIs627Billion)
{
    EXPECT_DOUBLE_EQ(DesignSpace::the().totalPoints(),
                     626688000000.0);
}

TEST(DesignSpace, RangeEndpoints)
{
    const auto &ds = DesignSpace::the();
    EXPECT_EQ(ds.value(Param::RobSize, 0), 32u);
    EXPECT_EQ(ds.value(Param::RobSize, 16), 160u);
    EXPECT_EQ(ds.value(Param::GshareSize, 0), 1024u);
    EXPECT_EQ(ds.value(Param::GshareSize, 5), 32768u);
    EXPECT_EQ(ds.value(Param::L2CacheSize, 4),
              4u * 1024 * 1024);
    EXPECT_EQ(ds.value(Param::Depth, 0), 9u);
    EXPECT_EQ(ds.value(Param::Depth, 9), 36u);
}

TEST(DesignSpace, ValuesStrictlyAscending)
{
    const auto &ds = DesignSpace::the();
    for (auto p : allParams()) {
        const auto &vals = ds.values(p);
        for (std::size_t i = 1; i < vals.size(); ++i)
            EXPECT_LT(vals[i - 1], vals[i]) << ds.name(p);
    }
}

TEST(DesignSpace, IndexOfRoundTrips)
{
    const auto &ds = DesignSpace::the();
    for (auto p : allParams()) {
        for (std::size_t i = 0; i < ds.numValues(p); ++i)
            EXPECT_EQ(ds.indexOf(p, ds.value(p, i)), i);
    }
}

TEST(DesignSpace, NamesNonEmptyAndUnique)
{
    const auto &ds = DesignSpace::the();
    std::set<std::string> names;
    for (auto p : allParams()) {
        EXPECT_FALSE(ds.name(p).empty());
        names.insert(ds.name(p));
    }
    EXPECT_EQ(names.size(), numParams);
}
