/**
 * @file
 * Tests of good-set labelling and full-model training on synthetic
 * phase data with a known counters→configuration mapping.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdlib>

#include "common/rng.hh"
#include "common/serial.hh"
#include "ml/cross_validation.hh"
#include "ml/trainer.hh"

using namespace adaptsim;
using namespace adaptsim::ml;
using space::Param;

namespace
{

/**
 * Synthetic phases of two behaviour types: type 0 prefers small
 * structures, type 1 prefers large ones.  One feature reveals the
 * type.
 */
std::vector<PhaseData>
syntheticPhases(std::size_t count, std::uint64_t seed)
{
    const auto &ds = space::DesignSpace::the();
    Rng rng(seed);
    std::vector<PhaseData> phases;
    for (std::size_t i = 0; i < count; ++i) {
        const bool big = i % 2 == 1;
        PhaseData ph;
        ph.workload = "synt" + std::to_string(i % 7);
        ph.phaseIndex = i;
        ph.weight = 1.0;
        // Features: [type, noise, bias].
        ph.features = {big ? 1.0 : 0.0, rng.nextDouble(), 1.0};

        // Evaluations: the "good" configs have IQ near the type's
        // preferred size; efficiency decays with distance.
        const double target = big ? 8.0 : 1.0;   // value index
        for (int s = 0; s < 30; ++s) {
            space::Configuration cfg;
            for (auto p : space::allParams()) {
                cfg.setIndex(p, std::uint8_t(rng.nextBounded(
                    ds.numValues(p))));
            }
            const double d =
                std::abs(double(cfg.index(Param::IqSize)) - target);
            ph.evals.push_back(
                ConfigEval{cfg, 100.0 / (1.0 + d * d)});
        }
        phases.push_back(std::move(ph));
    }
    return phases;
}

/**
 * A fixed paper-shaped dataset: 64 sparse features (about half of
 * them zero in each phase, as in the real counter vectors), three
 * programs, and efficiencies that depend on every parameter, so all
 * 14 classifiers see a non-trivial good set.
 */
std::vector<PhaseData>
sparsePaperPhases()
{
    constexpr std::size_t kDim = 64;
    const auto &ds = space::DesignSpace::the();
    Rng rng(2010);
    std::vector<PhaseData> phases;
    const char *programs[] = {"p0", "p1", "p2"};
    for (std::size_t i = 0; i < 12; ++i) {
        PhaseData ph;
        ph.workload = programs[i % 3];
        ph.phaseIndex = i / 3;
        ph.weight = 0.25;
        ph.features.assign(kDim, 0.0);
        for (double &x : ph.features) {
            if (rng.nextBool(0.5))
                x = rng.nextDouble() * 4.0 - 1.0;
        }
        ph.features.back() = 1.0;
        for (int s = 0; s < 40; ++s) {
            space::Configuration cfg;
            double miss = 0.0;
            for (auto p : space::allParams()) {
                const std::size_t k = ds.numValues(p);
                const auto idx = std::uint8_t(rng.nextBounded(k));
                cfg.setIndex(p, idx);
                const double target =
                    std::abs(ph.features[std::size_t(p) * 4]) / 3.0;
                const double d = double(idx) / double(k - 1) - target;
                miss += d * d;
            }
            ph.evals.push_back(ConfigEval{cfg, 100.0 / (1.0 + miss)});
        }
        phases.push_back(std::move(ph));
    }
    return phases;
}

/** FNV-1a over the bit patterns of every classifier's weights. */
std::uint64_t
hashWeights(const AdaptivityModel &model, std::uint64_t h = kFnvBasis)
{
    for (auto p : space::allParams()) {
        for (double w : model.classifier(p).weights().data()) {
            const auto bits = std::bit_cast<std::uint64_t>(w);
            h = fnv1a64(&bits, sizeof bits, h);
        }
    }
    return h;
}

} // namespace

TEST(PhaseData, BestAndGoodSet)
{
    PhaseData ph;
    ph.features = {1.0};
    space::Configuration a, b, c;
    b.setValue(Param::Width, 8);
    c.setValue(Param::Width, 6);
    ph.evals = {{a, 100.0}, {b, 97.0}, {c, 50.0}};
    EXPECT_DOUBLE_EQ(ph.bestEfficiency(), 100.0);
    EXPECT_EQ(ph.best().config, a);
    const auto good = ph.goodConfigs(0.95);
    ASSERT_EQ(good.size(), 2u);   // 100 and 97 are within 5%
}

TEST(Trainer, BuildExamplesCountsGoodConfigs)
{
    const auto phases = syntheticPhases(10, 3);
    TrainingSet set;
    for (const auto &ph : phases)
        set.push_back(&ph);
    const auto examples = buildExamples(set, Param::IqSize, 0.95);
    ASSERT_EQ(examples.size(), 10u);
    for (const auto &ex : examples) {
        double total = 0.0;
        for (double c : ex.classCount)
            total += c;
        EXPECT_GE(total, 1.0);   // at least the best config
        EXPECT_EQ(ex.x.size(), 3u);
    }
}

TEST(Trainer, LearnsFeatureToParameterMapping)
{
    const auto phases = syntheticPhases(60, 7);
    TrainerOptions opt;
    opt.cg.maxIterations = 120;
    const auto model = trainModel(phases, opt);

    // Predict for fresh feature vectors of both types.
    const std::vector<double> small_x = {0.0, 0.5, 1.0};
    const std::vector<double> big_x = {1.0, 0.5, 1.0};
    const auto small_cfg = model.predict(small_x);
    const auto big_cfg = model.predict(big_x);
    // IQ prediction must separate the types in the right direction.
    EXPECT_LT(small_cfg.index(Param::IqSize) + 2,
              big_cfg.index(Param::IqSize));
}

TEST(Trainer, ModelDimensions)
{
    const auto phases = syntheticPhases(8, 1);
    const auto model = trainModel(phases, {});
    EXPECT_EQ(model.featureDim(), 3u);
    const auto &ds = space::DesignSpace::the();
    std::size_t expect = 0;
    for (auto p : space::allParams())
        expect += 3 * ds.numValues(p);
    EXPECT_EQ(model.totalWeights(), expect);
}

TEST(Trainer, DeterministicTraining)
{
    const auto phases = syntheticPhases(20, 5);
    const auto a = trainModel(phases, {});
    const auto b = trainModel(phases, {});
    const std::vector<double> x = {1.0, 0.3, 1.0};
    EXPECT_EQ(a.predict(x), b.predict(x));
}

TEST(Trainer, RejectsEmptyAndInconsistent)
{
    EXPECT_EXIT((void)trainModel({}, {}),
                ::testing::ExitedWithCode(1), "");
    auto phases = syntheticPhases(4, 2);
    phases[2].features.push_back(9.0);
    EXPECT_EXIT((void)trainModel(phases, {}),
                ::testing::ExitedWithCode(1), "");
}

TEST(Trainer, LoocvRejectsFewerThanTwoProgramsOnCaller)
{
    // The message names leaveOneProgramOut, not trainModel: the check
    // ran on the calling thread before any fold started.
    EXPECT_EXIT((void)leaveOneProgramOut({}, {}),
                ::testing::ExitedWithCode(1),
                "leaveOneProgramOut needs at least two programs, got 0");
    auto phases = syntheticPhases(6, 4);
    for (auto &ph : phases)
        ph.workload = "only";
    EXPECT_EXIT((void)leaveOneProgramOut(phases, {}),
                ::testing::ExitedWithCode(1),
                "leaveOneProgramOut needs at least two programs, got 1");
}

TEST(Trainer, LoocvRejectsInconsistentFeaturesOnCaller)
{
    auto phases = syntheticPhases(8, 2);
    phases[5].features.push_back(9.0);
    EXPECT_EXIT((void)leaveOneProgramOut(phases, {}),
                ::testing::ExitedWithCode(1),
                "leaveOneProgramOut: inconsistent feature dimensions");
    for (auto &ph : phases)
        ph.features.clear();
    EXPECT_EXIT((void)leaveOneProgramOut(phases, {}),
                ::testing::ExitedWithCode(1),
                "leaveOneProgramOut: phases have no features");
}

TEST(Trainer, WeightsMatchFrozenGolden)
{
    // Recorded before the sparse / value-only / fixed-K training
    // kernel replaced the dense fused objective: that rewrite must
    // keep every weight bit-identical.  Any change to training
    // arithmetic (summation order included) moves this hash.
    const auto phases = sparsePaperPhases();
    std::uint64_t h = hashWeights(trainModel(phases, {}));
    for (const auto &pred : leaveOneProgramOut(phases, {})) {
        const std::uint64_t code = pred.predicted.encode();
        h = fnv1a64(&code, sizeof code, h);
    }
    EXPECT_EQ(h, 0x1d5b14e7aa312b95ULL) << std::hex << "0x" << h;
}

TEST(Trainer, ModelIndependentOfThreadCount)
{
    // One worker fits the 14 classifiers inline; three leave more
    // jobs than workers; unset uses every hardware thread.
    const auto phases = sparsePaperPhases();
    const char *const thread_counts[] = {"1", "3", nullptr};
    std::vector<AdaptivityModel> models;
    for (const char *threads : thread_counts) {
        if (threads)
            setenv("ADAPTSIM_THREADS", threads, 1);
        else
            unsetenv("ADAPTSIM_THREADS");
        models.push_back(trainModel(phases, {}));
    }
    unsetenv("ADAPTSIM_THREADS");
    for (std::size_t m = 1; m < models.size(); ++m) {
        for (auto p : space::allParams()) {
            EXPECT_EQ(models[m].classifier(p).weights().data(),
                      models[0].classifier(p).weights().data())
                << "threads " << (thread_counts[m] ? thread_counts[m]
                                                   : "unset");
        }
    }
}

TEST(Trainer, TrainModelsMatchesTrainModelOnEachSet)
{
    // Two sets of different feature dimensions in one batch: each
    // model equals the one trainModel fits on its set alone.
    const std::vector<std::vector<PhaseData>> phases = {
        sparsePaperPhases(), syntheticPhases(10, 3)};
    std::vector<TrainingSet> sets(phases.size());
    for (std::size_t s = 0; s < phases.size(); ++s) {
        for (const auto &ph : phases[s])
            sets[s].push_back(&ph);
    }
    const auto models = trainModels(sets, {}, "ml/train/job");
    ASSERT_EQ(models.size(), phases.size());
    for (std::size_t s = 0; s < phases.size(); ++s) {
        EXPECT_EQ(models[s].featureDim(),
                  phases[s].front().features.size());
        EXPECT_EQ(hashWeights(models[s]),
                  hashWeights(trainModel(phases[s], {})))
            << "set " << s;
    }
}
