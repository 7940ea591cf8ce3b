/**
 * @file
 * Tests of the environment-variable knobs.
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "common/env.hh"

using namespace adaptsim;

TEST(Env, DoubleFallback)
{
    unsetenv("ADAPTSIM_TEST_D");
    EXPECT_EQ(envDouble("ADAPTSIM_TEST_D", 2.5), 2.5);
    setenv("ADAPTSIM_TEST_D", "1.25", 1);
    EXPECT_EQ(envDouble("ADAPTSIM_TEST_D", 2.5), 1.25);
    setenv("ADAPTSIM_TEST_D", "garbage", 1);
    EXPECT_EQ(envDouble("ADAPTSIM_TEST_D", 2.5), 2.5);
    // strtod parses these, but a non-finite knob is never meant.
    for (const char *bad : {"nan", "inf", "-inf"}) {
        setenv("ADAPTSIM_TEST_D", bad, 1);
        EXPECT_EQ(envDouble("ADAPTSIM_TEST_D", 2.5), 2.5) << bad;
    }
    unsetenv("ADAPTSIM_TEST_D");
}

TEST(Env, LongFallback)
{
    unsetenv("ADAPTSIM_TEST_L");
    EXPECT_EQ(envLong("ADAPTSIM_TEST_L", 7), 7);
    setenv("ADAPTSIM_TEST_L", "42", 1);
    EXPECT_EQ(envLong("ADAPTSIM_TEST_L", 7), 42);
    unsetenv("ADAPTSIM_TEST_L");
}

TEST(Env, StringFallback)
{
    unsetenv("ADAPTSIM_TEST_S");
    EXPECT_EQ(envString("ADAPTSIM_TEST_S", "dflt"), "dflt");
    setenv("ADAPTSIM_TEST_S", "custom", 1);
    EXPECT_EQ(envString("ADAPTSIM_TEST_S", "dflt"), "custom");
    unsetenv("ADAPTSIM_TEST_S");
}

TEST(Env, ScaleRejectsNonPositive)
{
    setenv("ADAPTSIM_SCALE", "-3", 1);
    EXPECT_EQ(experimentScale(), 1.0);
    setenv("ADAPTSIM_SCALE", "0.5", 1);
    EXPECT_EQ(experimentScale(), 0.5);
    setenv("ADAPTSIM_SCALE", "inf", 1);
    EXPECT_EQ(experimentScale(), 1.0);
    unsetenv("ADAPTSIM_SCALE");
}

TEST(Env, ThreadsPositive)
{
    unsetenv("ADAPTSIM_THREADS");
    EXPECT_GE(numThreads(), 1u);
    setenv("ADAPTSIM_THREADS", "3", 1);
    EXPECT_EQ(numThreads(), 3u);
    setenv("ADAPTSIM_THREADS", "-2", 1);
    EXPECT_GE(numThreads(), 1u);
    unsetenv("ADAPTSIM_THREADS");
}

TEST(Env, LongPartialParseAndEmpty)
{
    setenv("ADAPTSIM_TEST_L", "", 1);
    EXPECT_EQ(envLong("ADAPTSIM_TEST_L", 7), 7);
    // strtol stops at the first non-digit; a leading number wins.
    setenv("ADAPTSIM_TEST_L", "12abc", 1);
    EXPECT_EQ(envLong("ADAPTSIM_TEST_L", 7), 12);
    setenv("ADAPTSIM_TEST_L", "abc", 1);
    EXPECT_EQ(envLong("ADAPTSIM_TEST_L", 7), 7);
    unsetenv("ADAPTSIM_TEST_L");
}

TEST(Env, DataDirDefaultAndOverride)
{
    unsetenv("ADAPTSIM_DATA_DIR");
    EXPECT_EQ(dataDir(), "data");
    setenv("ADAPTSIM_DATA_DIR", "/tmp/cache", 1);
    EXPECT_EQ(dataDir(), "/tmp/cache");
    unsetenv("ADAPTSIM_DATA_DIR");
}

TEST(Env, MetricsTristate)
{
    unsetenv("ADAPTSIM_METRICS");
    EXPECT_TRUE(metricsEnabled());
    EXPECT_EQ(metricsJsonPath(), "");
    setenv("ADAPTSIM_METRICS", "1", 1);
    EXPECT_TRUE(metricsEnabled());
    EXPECT_EQ(metricsJsonPath(), "");
    setenv("ADAPTSIM_METRICS", "0", 1);
    EXPECT_FALSE(metricsEnabled());
    EXPECT_EQ(metricsJsonPath(), "");
    setenv("ADAPTSIM_METRICS", "off", 1);
    EXPECT_FALSE(metricsEnabled());
    // Any other value doubles as the JSON dump path.
    setenv("ADAPTSIM_METRICS", "out/metrics.json", 1);
    EXPECT_TRUE(metricsEnabled());
    EXPECT_EQ(metricsJsonPath(), "out/metrics.json");
    unsetenv("ADAPTSIM_METRICS");
}

TEST(Env, TraceKnobs)
{
    unsetenv("ADAPTSIM_TRACE");
    EXPECT_EQ(traceFile(), "");
    setenv("ADAPTSIM_TRACE", "0", 1);
    EXPECT_EQ(traceFile(), "");
    setenv("ADAPTSIM_TRACE", "off", 1);
    EXPECT_EQ(traceFile(), "");
    setenv("ADAPTSIM_TRACE", "1", 1);
    EXPECT_EQ(traceFile(), "adaptsim_trace.json");
    // Any other value is the trace path.
    setenv("ADAPTSIM_TRACE", "out/t.json", 1);
    EXPECT_EQ(traceFile(), "out/t.json");
    unsetenv("ADAPTSIM_TRACE");
}
