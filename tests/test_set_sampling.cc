/**
 * @file
 * Tests of dynamic set sampling.
 */

#include <gtest/gtest.h>

#include "counters/set_sampling.hh"

using adaptsim::counters::SetSampler;

TEST(SetSampler, ZeroMeansAllSets)
{
    SetSampler s(256, 0);
    for (std::uint64_t i = 0; i < 256; ++i)
        EXPECT_TRUE(s.sampled(i));
}

TEST(SetSampler, StrideSampling)
{
    SetSampler s(256, 16);
    std::uint64_t count = 0;
    for (std::uint64_t i = 0; i < 256; ++i)
        count += s.sampled(i);
    EXPECT_EQ(count, 16u);
    // Every 16th set starting at 0.
    EXPECT_TRUE(s.sampled(0));
    EXPECT_TRUE(s.sampled(16));
    EXPECT_FALSE(s.sampled(1));
}

TEST(SetSampler, AddressMapping)
{
    SetSampler s(64, 4);
    // 64 sets of 64B: set = (addr/64) & 63.  Stride = 16.
    EXPECT_TRUE(s.sampledAddr(0, 64));
    EXPECT_TRUE(s.sampledAddr(16 * 64, 64));
    EXPECT_FALSE(s.sampledAddr(3 * 64, 64));
    EXPECT_TRUE(s.sampledAddr(64 * 64, 64));   // wraps to set 0
}

TEST(SetSampler, RejectsBadCounts)
{
    EXPECT_EXIT((SetSampler{100, 4}),
                ::testing::ExitedWithCode(1), "");
    EXPECT_EXIT((SetSampler{64, 3}),
                ::testing::ExitedWithCode(1), "");
    EXPECT_EXIT((SetSampler{64, 128}),
                ::testing::ExitedWithCode(1), "");
}

/** Property: sampled count always matches the request. */
class SamplerSweep
    : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(SamplerSweep, ExactSampleCount)
{
    const std::uint64_t sampled_sets = GetParam();
    SetSampler s(1024, sampled_sets);
    std::uint64_t count = 0;
    for (std::uint64_t i = 0; i < 1024; ++i)
        count += s.sampled(i);
    EXPECT_EQ(count, sampled_sets);
}

INSTANTIATE_TEST_SUITE_P(PowersOfTwo, SamplerSweep,
                         ::testing::Values(1, 2, 4, 16, 64, 256,
                                           1024));
