/**
 * @file
 * Tests of leave-one-program-out cross-validation.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <set>

#include "common/rng.hh"
#include "common/serial.hh"
#include "ml/cross_validation.hh"
#include "obs/obs.hh"

using namespace adaptsim;
using namespace adaptsim::ml;
using space::Param;

namespace
{

/** Phases for named programs; program determines the good IQ size. */
std::vector<PhaseData>
programPhases()
{
    const auto &ds = space::DesignSpace::the();
    Rng rng(13);
    std::vector<PhaseData> phases;
    const char *programs[] = {"alpha", "beta", "gamma", "delta"};
    for (int prog = 0; prog < 4; ++prog) {
        for (int i = 0; i < 6; ++i) {
            PhaseData ph;
            ph.workload = programs[prog];
            ph.phaseIndex = i;
            ph.weight = 1.0 / 6.0;
            const bool big = prog % 2 == 1;
            ph.features = {big ? 1.0 : 0.0, 1.0};
            const double target = big ? 8.0 : 1.0;
            for (int s = 0; s < 20; ++s) {
                space::Configuration cfg;
                for (auto p : space::allParams()) {
                    cfg.setIndex(p, std::uint8_t(rng.nextBounded(
                        ds.numValues(p))));
                }
                const double d = std::abs(
                    double(cfg.index(Param::IqSize)) - target);
                ph.evals.push_back(
                    ConfigEval{cfg, 10.0 / (1.0 + d * d)});
            }
            phases.push_back(std::move(ph));
        }
    }
    return phases;
}

/**
 * Eight programs with uneven phase counts (29 phases in all), dealt
 * round-robin so no program's phases are contiguous: more folds
 * than pool workers, folds of different sizes, and output slots of
 * one fold interleaved with every other's.
 */
std::vector<PhaseData>
unevenPhases()
{
    constexpr std::size_t kDim = 6;
    const std::size_t counts[] = {5, 1, 3, 7, 2, 4, 1, 6};
    const auto &ds = space::DesignSpace::the();
    Rng rng(32);
    std::vector<std::vector<PhaseData>> per_program(std::size(counts));
    for (std::size_t prog = 0; prog < std::size(counts); ++prog) {
        for (std::size_t i = 0; i < counts[prog]; ++i) {
            PhaseData ph;
            ph.workload = "prog" + std::to_string(prog);
            ph.phaseIndex = i;
            ph.weight = 1.0 / double(counts[prog]);
            ph.features.assign(kDim, 0.0);
            for (double &x : ph.features)
                x = rng.nextDouble() * 2.0 - 1.0 + double(prog % 3);
            ph.features.back() = 1.0;
            for (int s = 0; s < 24; ++s) {
                space::Configuration cfg;
                double miss = 0.0;
                for (auto p : space::allParams()) {
                    const std::size_t k = ds.numValues(p);
                    const auto idx = std::uint8_t(rng.nextBounded(k));
                    cfg.setIndex(p, idx);
                    const double target =
                        std::abs(ph.features[std::size_t(p) % kDim]) /
                        3.0;
                    const double d =
                        double(idx) / double(k - 1) - target;
                    miss += d * d;
                }
                ph.evals.push_back(
                    ConfigEval{cfg, 100.0 / (1.0 + miss)});
            }
            per_program[prog].push_back(std::move(ph));
        }
    }
    std::vector<PhaseData> phases;
    for (std::size_t round = 0;; ++round) {
        bool any = false;
        for (auto &program : per_program) {
            if (round < program.size()) {
                phases.push_back(std::move(program[round]));
                any = true;
            }
        }
        if (!any)
            break;
    }
    return phases;
}

/** FNV-1a over every prediction's encoding, in phase order. */
std::uint64_t
hashPredictions(const std::vector<CvPrediction> &predictions)
{
    std::uint64_t h = kFnvBasis;
    for (const auto &pred : predictions) {
        const std::uint64_t code = pred.predicted.encode();
        h = fnv1a64(&code, sizeof code, h);
    }
    return h;
}

} // namespace

TEST(CrossValidation, PredictsForEveryPhaseInOrder)
{
    const auto phases = programPhases();
    const auto predictions = leaveOneProgramOut(phases, {});
    ASSERT_EQ(predictions.size(), phases.size());
    for (std::size_t i = 0; i < predictions.size(); ++i)
        EXPECT_EQ(predictions[i].phaseIdx, i);
}

TEST(CrossValidation, GeneralisesAcrossPrograms)
{
    // Because two programs of each type exist, the held-out program
    // is still predictable from the others.
    const auto phases = programPhases();
    const auto predictions = leaveOneProgramOut(phases, {});
    // Average predicted IQ index per type.
    double small_sum = 0.0, big_sum = 0.0;
    int small_n = 0, big_n = 0;
    for (std::size_t i = 0; i < phases.size(); ++i) {
        const auto idx =
            predictions[i].predicted.index(Param::IqSize);
        if (phases[i].features[0] > 0.5) {
            big_sum += idx;
            ++big_n;
        } else {
            small_sum += idx;
            ++small_n;
        }
    }
    EXPECT_GT(big_sum / big_n, small_sum / small_n + 2.0);
}

TEST(CrossValidation, Deterministic)
{
    const auto phases = programPhases();
    const auto a = leaveOneProgramOut(phases, {});
    const auto b = leaveOneProgramOut(phases, {});
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i].predicted, b[i].predicted);
}

TEST(CrossValidation, PredictionsMatchFrozenGolden)
{
    // Recorded while the folds still ran one after another on the
    // calling thread: running them on a pool must keep every
    // prediction bit-identical.
    const auto phases = unevenPhases();
    ASSERT_EQ(phases.size(), 29u);
    const auto predictions = leaveOneProgramOut(phases, {});
    ASSERT_EQ(predictions.size(), phases.size());
    std::set<std::uint64_t> distinct;
    for (std::size_t i = 0; i < predictions.size(); ++i) {
        EXPECT_EQ(predictions[i].phaseIdx, i);
        distinct.insert(predictions[i].predicted.encode());
    }
    // The folds must disagree, or the hash pins one configuration.
    EXPECT_GT(distinct.size(), 8u) << distinct.size();
    const std::uint64_t h = hashPredictions(predictions);
    EXPECT_EQ(h, 0x1f063b5423f4d217ULL) << std::hex << "0x" << h;
}

TEST(CrossValidation, ResultIndependentOfThreadCount)
{
    // One worker runs the folds inline; three leave more folds than
    // workers; unset uses every hardware thread.
    const auto phases = unevenPhases();
    const char *const thread_counts[] = {"1", "3", nullptr};
    std::vector<std::uint64_t> hashes;
    for (const char *threads : thread_counts) {
        if (threads)
            setenv("ADAPTSIM_THREADS", threads, 1);
        else
            unsetenv("ADAPTSIM_THREADS");
        const auto predictions = leaveOneProgramOut(phases, {});
        ASSERT_EQ(predictions.size(), phases.size());
        hashes.push_back(hashPredictions(predictions));
    }
    unsetenv("ADAPTSIM_THREADS");
    EXPECT_EQ(hashes[1], hashes[0]);
    EXPECT_EQ(hashes[2], hashes[0]);
}

TEST(CrossValidation, JobSpanCountsOneSamplePerFoldAndParameter)
{
    auto &whole = obs::spanHistogram("ml/loocv");
    auto &job = obs::spanHistogram("ml/loocv/job");
    const auto whole_before = whole.stats().count;
    const auto job_before = job.stats().count;
    (void)leaveOneProgramOut(unevenPhases(), {});
    EXPECT_EQ(whole.stats().count - whole_before, 1u);
    // 8 programs × 14 per-parameter classifiers.
    EXPECT_EQ(job.stats().count - job_before, 8u * space::numParams);
}
