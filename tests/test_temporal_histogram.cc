/**
 * @file
 * Tests of the temporal (cycle-weighted) usage histogram.
 */

#include <gtest/gtest.h>

#include "counters/temporal_histogram.hh"
#include "histogram_total.hh"

using adaptsim::counters::TemporalHistogram;
using adaptsim::test::histogramTotal;

TEST(TemporalHistogram, RecordsCycleWeights)
{
    TemporalHistogram h(80, 16);
    h.record(16, 100);   // 100 cycles at occupancy 16
    h.record(32, 200);
    EXPECT_EQ(histogramTotal(h.raw()), 300u);
    EXPECT_NEAR(h.meanUsage(), (16.0 * 100 + 32.0 * 200) / 300.0,
                1e-12);
}

TEST(TemporalHistogram, NormalisedFractions)
{
    TemporalHistogram h(8, 9);
    h.record(0, 25);
    h.record(8, 75);
    const auto f = h.normalised();
    EXPECT_NEAR(f.front(), 0.25, 1e-12);
    EXPECT_NEAR(f.back(), 0.75, 1e-12);
}

TEST(TemporalHistogram, ClearResets)
{
    TemporalHistogram h(10, 5);
    h.record(3, 10);
    h.clear();
    EXPECT_EQ(histogramTotal(h.raw()), 0u);
    EXPECT_EQ(h.meanUsage(), 0.0);
}

TEST(TemporalHistogram, BinValueCoversRange)
{
    TemporalHistogram h(160, 16);
    // The last bin must start at or below the max value and the
    // max value must land in a valid bin.
    EXPECT_LE(h.binValue(h.numBins() - 1), 160u);
    h.record(160, 1);
    EXPECT_EQ(histogramTotal(h.raw()), 1u);
}

TEST(TemporalHistogram, RejectsDegenerate)
{
    EXPECT_EXIT((TemporalHistogram{10, 1}),
                ::testing::ExitedWithCode(1), "");
}
