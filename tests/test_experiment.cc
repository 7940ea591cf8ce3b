/**
 * @file
 * Miniature full-stack experiment test: suite → phases → gather →
 * baseline → LOOCV model results, all at a tiny scale with a
 * temporary cache directory.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "counter_delta.hh"
#include "harness/experiment.hh"
#include "scratch_dir.hh"
#include "sim/perf_model.hh"

using namespace adaptsim;
using namespace adaptsim::harness;
using adaptsim::test::CounterDelta;

namespace
{

ExperimentOptions
tinyOptions(const std::string &dir)
{
    ExperimentOptions opt;
    opt.programLength = 24000;
    opt.intervalLength = 1200;
    opt.warmLength = 1200;
    opt.phasesPerProgram = 2;
    opt.gather.sharedRandomConfigs = 6;
    opt.gather.localNeighbours = 2;
    opt.gather.oneAtATimeSweep = false;
    opt.trainer.cg.maxIterations = 30;
    opt.dataDir = dir;
    opt.threads = 0;
    return opt;
}

/** The LOOCV-predicted configuration codes of the experiment
 *  @p opt describes. */
std::vector<std::uint64_t>
predictedCodes(const ExperimentOptions &opt)
{
    Experiment exp(opt);
    std::vector<std::uint64_t> codes;
    for (const auto &r : exp.modelResults(counters::FeatureSet::Basic))
        codes.push_back(r.config.encode());
    return codes;
}

} // namespace

TEST(Experiment, EndToEndTinyScale)
{
    const std::string dir = test::scratchDir("adaptsim_experiment_test");
    std::filesystem::remove_all(dir);

    {
        Experiment exp(tinyOptions(dir));
        const auto &phases = exp.phases();
        // 26 programs × up to 2 phases.
        EXPECT_GE(phases.size(), 26u);
        EXPECT_LE(phases.size(), 52u);

        // Baseline must be a member of the shared pool.
        const auto &baseline = exp.baselineConfig();
        bool in_pool = false;
        for (const auto &cfg : exp.sharedPool())
            in_pool = in_pool || cfg == baseline;
        EXPECT_TRUE(in_pool);

        // Every phase can price the baseline.
        for (std::size_t i = 0; i < phases.size(); ++i)
            EXPECT_GT(exp.baselineEfficiency(i), 0.0);

        // Program grouping covers all phases exactly once.
        std::size_t grouped = 0;
        for (const auto &[name, idxs] : exp.phasesByProgram())
            grouped += idxs.size();
        EXPECT_EQ(grouped, phases.size());

        // LOOCV model results exist for every phase and are
        // positive.
        const auto &results =
            exp.modelResults(counters::FeatureSet::Basic);
        ASSERT_EQ(results.size(), phases.size());
        for (const auto &r : results)
            EXPECT_GT(r.efficiency, 0.0);

        // Relative efficiency of the baseline itself is exactly 1.
        const auto &first_prog =
            exp.phasesByProgram().begin()->second;
        const double rel = exp.relativeEfficiency(
            first_prog, [&](std::size_t i) {
                return exp.baselineEfficiency(i);
            });
        EXPECT_NEAR(rel, 1.0, 1e-9);
    }

    // A second Experiment over the same directory reuses everything.
    {
        const CounterDelta d;
        Experiment exp(tinyOptions(dir));
        exp.phases();
        EXPECT_EQ(d("repo/miss"), 0u);
    }

    std::filesystem::remove_all(dir);
}

TEST(Experiment, LoocvPredictionsNeverLeakBetweenExperiments)
{
    // Experiment A trains with a shorter conjugate-gradient budget
    // than B; everything else, gather included, is the same.  B run
    // where A already cached its predictions must train afresh,
    // exactly as B in an empty directory does.
    const std::string shared =
        test::scratchDir("adaptsim_experiment_loocv_shared");
    const std::string fresh =
        test::scratchDir("adaptsim_experiment_loocv_fresh");
    std::filesystem::remove_all(shared);
    std::filesystem::remove_all(fresh);

    auto a = tinyOptions(shared);
    a.trainer.cg.maxIterations = 2;
    const auto by_a = predictedCodes(a);
    const auto b_after_a = predictedCodes(tinyOptions(shared));
    const auto b_alone = predictedCodes(tinyOptions(fresh));
    ASSERT_EQ(b_alone.size(), by_a.size());
    EXPECT_EQ(b_after_a, b_alone);
    EXPECT_NE(by_a, b_alone);   // the two experiments really differ

    std::filesystem::remove_all(shared);
    std::filesystem::remove_all(fresh);
}

TEST(Experiment, LoocvCacheWithAMissingPhaseIsRetrained)
{
    // A prediction file whose line count is right but which repeats
    // one phase index and lacks another must not be served: the
    // missing phase would silently get a default configuration.  Nor
    // may a damaged line (wrong separator, trailing junk): any code
    // decodes to some configuration, which would be served as the
    // phase's prediction.
    const std::string dir =
        test::scratchDir("adaptsim_experiment_loocv_missing");
    std::filesystem::remove_all(dir);

    const auto codes = [&] {
        Experiment exp(tinyOptions(dir));
        std::vector<std::uint64_t> out;
        for (const auto &r :
             exp.modelResults(counters::FeatureSet::Advanced))
            out.push_back(r.config.encode());
        return out;
    };
    const auto first = codes();
    ASSERT_GE(first.size(), 2u);

    std::string path;
    for (const auto &entry : std::filesystem::directory_iterator(dir)) {
        const std::string name = entry.path().filename();
        if (name.rfind("loocv_advanced_", 0) == 0)
            path = entry.path();
    }
    ASSERT_FALSE(path.empty());
    std::vector<std::string> lines;
    {
        std::ifstream in(path);
        for (std::string line; std::getline(in, line);)
            lines.push_back(line);
    }
    ASSERT_EQ(lines.size(), first.size());
    ASSERT_NE(first.front(), 0u);   // "0,0" would be a real change
    const std::pair<std::size_t, std::string> damage[] = {
        {lines.size() - 1, lines.front()},   // phase 0 twice
        {0, "0;0"},
        {0, "0,0 junk"},
    };
    for (const auto &[at, replacement] : damage) {
        auto damaged = lines;
        damaged[at] = replacement;
        {
            std::ofstream out(path, std::ios::trunc);
            for (const auto &line : damaged)
                out << line << '\n';
        }
        EXPECT_EQ(codes(), first) << replacement;
    }
    std::filesystem::remove_all(dir);
}

TEST(Experiment, CycleGatherNeverReusesIntervalMemoEntries)
{
    // An interval experiment leaves a memo index behind.  A cycle
    // experiment in the same directory must not recognise its
    // phases there and train on interval efficiencies: it predicts
    // exactly what it predicts in an empty directory.
    const std::string shared =
        test::scratchDir("adaptsim_experiment_memo_shared");
    const std::string fresh =
        test::scratchDir("adaptsim_experiment_memo_fresh");
    std::filesystem::remove_all(shared);
    std::filesystem::remove_all(fresh);

    auto interval = tinyOptions(shared);
    interval.gather.backend = &sim::perfModel("interval");
    auto cycle = tinyOptions(shared);
    cycle.gather.backend = &sim::perfModel("cycle");
    predictedCodes(interval);
    const auto after_interval = predictedCodes(cycle);
    cycle.dataDir = fresh;
    const auto alone = predictedCodes(cycle);
    ASSERT_FALSE(alone.empty());
    EXPECT_EQ(after_interval, alone);

    std::filesystem::remove_all(shared);
    std::filesystem::remove_all(fresh);
}

TEST(Experiment, PredictionsAreEvaluatedOnTheGatherBackend)
{
    // An interval experiment's profiling runs fall back to cycle,
    // but evaluating its predictions must simulate on interval only.
    const std::string dir =
        test::scratchDir("adaptsim_experiment_backend");
    std::filesystem::remove_all(dir);

    auto opt = tinyOptions(dir);
    opt.gather.backend = &sim::perfModel("interval");
    Experiment exp(opt);
    exp.phases();
    const CounterDelta d;
    ASSERT_FALSE(exp.modelResults(counters::FeatureSet::Basic).empty());
    EXPECT_EQ(d("backend/cycle/evals"), 0u);
    EXPECT_GT(d("backend/interval/evals"), 0u);

    std::filesystem::remove_all(dir);
}
