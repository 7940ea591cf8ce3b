/**
 * @file
 * Tests of the Sec. V-C training-data gatherer.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <unordered_set>
#include <utility>

#include "counter_delta.hh"
#include "harness/gather.hh"
#include "obs/registry.hh"
#include "phase/simpoint.hh"
#include "scratch_dir.hh"
#include "sim/perf_model.hh"
#include "workload/spec_suite.hh"

using namespace adaptsim;
using namespace adaptsim::harness;
using adaptsim::test::CounterDelta;

namespace
{

class GatherTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = test::scratchDir("adaptsim_gather_test");
        std::filesystem::remove_all(dir_);
    }

    void
    TearDown() override
    {
        std::filesystem::remove_all(dir_);
    }

    std::string dir_;
};

} // namespace

TEST(GatherPool, ContainsPaperBaseline)
{
    GatherOptions opt;
    opt.sharedRandomConfigs = 12;
    const auto pool = sharedConfigPool(opt);
    EXPECT_GE(pool.size(), 12u);
    const auto baseline = paperBaselineConfig();
    bool found = false;
    for (const auto &cfg : pool)
        found = found || cfg == baseline;
    EXPECT_TRUE(found);
}

TEST(GatherPool, DeterministicForSeed)
{
    GatherOptions opt;
    opt.sharedRandomConfigs = 10;
    const auto a = sharedConfigPool(opt);
    const auto b = sharedConfigPool(opt);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i], b[i]);
}

TEST(PaperBaseline, MatchesTable3)
{
    const auto cfg = paperBaselineConfig();
    EXPECT_EQ(cfg.value(space::Param::Width), 4u);
    EXPECT_EQ(cfg.value(space::Param::RobSize), 144u);
    EXPECT_EQ(cfg.value(space::Param::IqSize), 48u);
    EXPECT_EQ(cfg.value(space::Param::LsqSize), 32u);
    EXPECT_EQ(cfg.value(space::Param::GshareSize), 16384u);
    EXPECT_EQ(cfg.value(space::Param::Depth), 12u);
}

TEST_F(GatherTest, GathersSharedNeighboursAndSweep)
{
    constexpr std::uint64_t len = 60000;
    EvalRepository repo(workload::specSuite(len), dir_, 0);

    phase::SimPointOptions sp;
    sp.intervalLength = 1500;
    sp.maxPhases = 2;
    const auto phases =
        phase::extractPhases(repo.workload("gzip"), sp);

    GatherOptions opt;
    opt.sharedRandomConfigs = 8;
    opt.localNeighbours = 4;
    opt.oneAtATimeSweep = true;
    const auto gathered =
        gatherTrainingData(repo, phases, len, 1000, opt);

    ASSERT_EQ(gathered.size(), phases.size());
    for (const auto &g : gathered) {
        // 8 random + Table III + 4 neighbours + 97 sweep, minus
        // duplicates the sweep may share with earlier sets.
        EXPECT_GE(g.evals.size(), 100u);
        EXPECT_FALSE(g.features.advanced.empty());
        EXPECT_FALSE(g.features.basic.empty());
        EXPECT_EQ(g.spec.workload, "gzip");
        EXPECT_EQ(g.spec.detailLength, 1500u);

        // Efficiencies are positive and vary across configs.
        std::unordered_set<double> distinct;
        for (const auto &e : g.evals) {
            EXPECT_GT(e.efficiency, 0.0);
            distinct.insert(e.efficiency);
        }
        EXPECT_GT(distinct.size(), g.evals.size() / 2);
    }
}

TEST_F(GatherTest, NoSweepOptionShrinksEvalCount)
{
    constexpr std::uint64_t len = 60000;
    EvalRepository repo(workload::specSuite(len), dir_, 0);
    phase::SimPointOptions sp;
    sp.intervalLength = 1500;
    sp.maxPhases = 1;
    const auto phases =
        phase::extractPhases(repo.workload("eon"), sp);

    GatherOptions opt;
    opt.sharedRandomConfigs = 6;
    opt.localNeighbours = 3;
    opt.oneAtATimeSweep = false;
    const auto gathered =
        gatherTrainingData(repo, phases, len, 1000, opt);
    ASSERT_EQ(gathered.size(), 1u);
    EXPECT_LE(gathered[0].evals.size(), 10u);
}

TEST_F(GatherTest, ToPhaseDataSelectsFeatureSet)
{
    constexpr std::uint64_t len = 60000;
    EvalRepository repo(workload::specSuite(len), dir_, 0);
    phase::SimPointOptions sp;
    sp.intervalLength = 1500;
    sp.maxPhases = 1;
    const auto phases =
        phase::extractPhases(repo.workload("eon"), sp);
    GatherOptions opt;
    opt.sharedRandomConfigs = 4;
    opt.localNeighbours = 0;
    opt.oneAtATimeSweep = false;
    const auto gathered =
        gatherTrainingData(repo, phases, len, 1000, opt);

    const auto adv = gathered[0].toPhaseData(
        counters::FeatureSet::Advanced);
    const auto bas = gathered[0].toPhaseData(
        counters::FeatureSet::Basic);
    EXPECT_EQ(adv.features, gathered[0].features.advanced);
    EXPECT_EQ(bas.features, gathered[0].features.basic);
    EXPECT_EQ(adv.evals.size(), gathered[0].evals.size());
    EXPECT_EQ(adv.workload, "eon");
}

TEST_F(GatherTest, RegistryCountsEveryEventPerfbenchReads)
{
    // The obs registry is the only record of repository, trace-cache
    // and memo activity, and perfbench/layers.cc reads these names
    // from it: a renamed or dropped count would read 0 there, not
    // fail.  A cold two-phase cycle gather into a fresh store, the
    // same gather over that store from a fresh repository, then one
    // interval evaluation, each count pinned exactly.
    constexpr std::uint64_t len = 60000;
    phase::SimPointOptions sp;
    sp.intervalLength = 1500;
    sp.maxPhases = 2;
    GatherOptions opt;
    opt.sharedRandomConfigs = 4;
    opt.localNeighbours = 2;
    opt.oneAtATimeSweep = false;
    opt.progress = false;
    opt.backend = &sim::perfModel("cycle");

    auto &reg = obs::Registry::global();
    const auto samples = [&reg](const char *span) {
        return reg.histogram(std::string(span) + ".seconds")
            .stats()
            .count;
    };
    const std::uint64_t simulate0 = samples("repo/simulate");
    const std::uint64_t profile0 = samples("repo/profile");
    const CounterDelta d;
    PhaseSpec first_spec;
    for (int pass = 0; pass < 2; ++pass) {
        EvalRepository repo(workload::specSuite(len), dir_, 0);
        const auto phases =
            phase::extractPhases(repo.workload("gzip"), sp);
        ASSERT_EQ(phases.size(), 2u);
        first_spec = gatherTrainingData(repo, phases, len, 1000, opt)
                         .front()
                         .spec;
    }
    {
        EvalRepository repo(workload::specSuite(len), dir_, 0);
        (void)repo.evaluate(first_spec, paperBaselineConfig(),
                            &sim::perfModel("interval"));
    }

    // The cold pass simulates 7 configurations and a profile per
    // phase; the warm pass hits the memo and probes each phase's
    // best from the 14 stored records; the evaluation loads the
    // first phase's 7 records and simulates on interval.
    const std::pair<const char *, std::uint64_t> want[] = {
        {"repo/hit", 2},
        {"repo/miss", 17},
        {"repo/loaded", 21},
        {"repo/flushed", 15},
        {"tracecache/hits", 28},
        {"tracecache/misses", 6},
        {"gather/memo/hit", 2},
        {"gather/memo/miss", 2},
        {"gather/memo/escalated", 0},
        {"backend/cycle/evals", 16},
        {"backend/interval/evals", 1},
    };
    for (const auto &[name, count] : want)
        EXPECT_EQ(d(name), count) << name;
    EXPECT_EQ(samples("repo/simulate") - simulate0, 15u);
    EXPECT_EQ(samples("repo/profile") - profile0, 2u);
}
