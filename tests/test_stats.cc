/**
 * @file
 * Tests of the summary statistics helpers.
 */

#include <gtest/gtest.h>

#include "common/stats.hh"

using namespace adaptsim;

TEST(Stats, Geomean)
{
    EXPECT_NEAR(geomean({2.0, 8.0}), 4.0, 1e-12);
    EXPECT_NEAR(geomean({5.0}), 5.0, 1e-12);
    EXPECT_EQ(geomean({}), 0.0);
    EXPECT_EQ(geomean({1.0, 0.0}), 0.0);   // non-positive guard
}

TEST(Stats, Mean)
{
    EXPECT_NEAR(mean({1.0, 2.0, 3.0}), 2.0, 1e-12);
    EXPECT_EQ(mean({}), 0.0);
}

TEST(Stats, Median)
{
    EXPECT_EQ(median({5.0, 1.0, 3.0}), 3.0);
    EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.0);   // lower middle
    EXPECT_EQ(median({}), 0.0);
}

TEST(Stats, Percentile)
{
    const std::vector<double> v = {10, 20, 30, 40, 50};
    EXPECT_NEAR(percentile(v, 0), 10.0, 1e-12);
    EXPECT_NEAR(percentile(v, 50), 30.0, 1e-12);
    EXPECT_NEAR(percentile(v, 100), 50.0, 1e-12);
    EXPECT_NEAR(percentile(v, 25), 20.0, 1e-12);
    EXPECT_NEAR(percentile(v, 10), 14.0, 1e-12);   // interpolated
}

TEST(Stats, EcdfFromRight)
{
    const std::vector<double> v = {0.5, 1.0, 1.5, 2.0};
    EXPECT_NEAR(ecdfFromRight(v, 0.0), 1.0, 1e-12);
    EXPECT_NEAR(ecdfFromRight(v, 1.0), 0.75, 1e-12);
    EXPECT_NEAR(ecdfFromRight(v, 2.1), 0.0, 1e-12);
    EXPECT_EQ(ecdfFromRight({}, 1.0), 0.0);
}
