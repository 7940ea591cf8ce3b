/**
 * @file
 * Tests of the linear/log2 histogram.
 */

#include <gtest/gtest.h>

#include "common/histogram.hh"
#include "histogram_total.hh"

using adaptsim::Histogram;
using adaptsim::test::histogramTotal;

TEST(Histogram, LinearBinning)
{
    Histogram h(Histogram::Binning::Linear, 5, 0, 10);
    EXPECT_EQ(h.binIndex(0), 0u);
    EXPECT_EQ(h.binIndex(9), 0u);
    EXPECT_EQ(h.binIndex(10), 1u);
    EXPECT_EQ(h.binIndex(39), 3u);
    EXPECT_EQ(h.binIndex(40), 4u);
    EXPECT_EQ(h.binIndex(1000), 4u);   // overflow bin
}

TEST(Histogram, Log2Binning)
{
    Histogram h(Histogram::Binning::Log2, 6);
    EXPECT_EQ(h.binIndex(0), 0u);
    EXPECT_EQ(h.binIndex(1), 1u);
    EXPECT_EQ(h.binIndex(2), 2u);
    EXPECT_EQ(h.binIndex(3), 2u);
    EXPECT_EQ(h.binIndex(4), 3u);
    EXPECT_EQ(h.binIndex(7), 3u);
    EXPECT_EQ(h.binIndex(8), 4u);
    EXPECT_EQ(h.binIndex(1 << 20), 5u);   // overflow bin
}

TEST(Histogram, Log2BinEdges)
{
    Histogram h(Histogram::Binning::Log2, 6);
    EXPECT_EQ(h.binLowerEdge(0), 0u);
    EXPECT_EQ(h.binLowerEdge(1), 1u);
    EXPECT_EQ(h.binLowerEdge(2), 2u);
    EXPECT_EQ(h.binLowerEdge(3), 4u);
    EXPECT_EQ(h.binLowerEdge(5), 16u);
}

TEST(Histogram, WeightedAdd)
{
    Histogram h(Histogram::Binning::Linear, 4, 0, 1);
    h.add(0, 100);
    h.add(2, 200);
    EXPECT_EQ(h.count(0), 100u);
    EXPECT_EQ(h.count(2), 200u);
    EXPECT_EQ(histogramTotal(h), 300u);
}

TEST(Histogram, NormalisedSumsToOne)
{
    Histogram h(Histogram::Binning::Linear, 8, 0, 2);
    for (int i = 0; i < 50; ++i)
        h.add(i % 16, 1 + i % 3);
    const auto f = h.normalised();
    double sum = 0.0;
    for (double v : f)
        sum += v;
    EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(Histogram, NormalisedEmptyIsZero)
{
    Histogram h(Histogram::Binning::Linear, 4, 0, 1);
    for (double v : h.normalised())
        EXPECT_EQ(v, 0.0);
}

TEST(Histogram, Mean)
{
    Histogram h(Histogram::Binning::Linear, 16, 0, 1);
    h.add(2, 1);
    h.add(4, 3);
    EXPECT_NEAR(h.mean(), (2.0 + 12.0) / 4.0, 1e-12);
}

TEST(Histogram, ClearResets)
{
    Histogram h(Histogram::Binning::Log2, 8);
    h.add(5, 7);
    h.clear();
    EXPECT_EQ(histogramTotal(h), 0u);
    EXPECT_EQ(h.count(h.binIndex(5)), 0u);
}

/** Property: every value maps into a valid bin with the right edge. */
class HistogramProperty
    : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(HistogramProperty, ValueFallsInItsBin)
{
    const std::uint64_t v = GetParam();
    Histogram lin(Histogram::Binning::Linear, 20, 0, 7);
    const auto bin = lin.binIndex(v);
    ASSERT_LT(bin, lin.numBins());
    if (bin + 1 < lin.numBins()) {
        EXPECT_GE(v, lin.binLowerEdge(bin));
        EXPECT_LT(v, lin.binLowerEdge(bin + 1));
    }

    Histogram log(Histogram::Binning::Log2, 20);
    const auto lbin = log.binIndex(v);
    ASSERT_LT(lbin, log.numBins());
    EXPECT_GE(v, log.binLowerEdge(lbin));
}

INSTANTIATE_TEST_SUITE_P(Values, HistogramProperty,
                         ::testing::Values(0, 1, 2, 3, 6, 7, 8, 13,
                                           64, 127, 128, 1000,
                                           123456789));
