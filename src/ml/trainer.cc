#include "ml/trainer.hh"

#include <algorithm>

#include "common/logging.hh"

namespace adaptsim::ml
{

double
PhaseData::bestEfficiency() const
{
    double best = 0.0;
    for (const auto &e : evals)
        best = std::max(best, e.efficiency);
    return best;
}

const ConfigEval &
PhaseData::best() const
{
    if (evals.empty())
        fatal("PhaseData::best on phase with no evaluations");
    const ConfigEval *best = &evals.front();
    for (const auto &e : evals) {
        if (e.efficiency > best->efficiency)
            best = &e;
    }
    return *best;
}

std::vector<const ConfigEval *>
PhaseData::goodConfigs(double threshold) const
{
    const double cut = bestEfficiency() * threshold;
    std::vector<const ConfigEval *> good;
    for (const auto &e : evals) {
        if (e.efficiency >= cut)
            good.push_back(&e);
    }
    return good;
}

AdaptivityModel::AdaptivityModel(std::size_t dim)
    : dim_(dim)
{
    const auto &ds = space::DesignSpace::the();
    for (auto p : space::allParams()) {
        classifiers_[static_cast<std::size_t>(p)] =
            SoftmaxClassifier(dim, ds.numValues(p));
    }
}

space::Configuration
AdaptivityModel::predict(std::span<const double> x) const
{
    space::Configuration cfg;
    for (auto p : space::allParams()) {
        const auto &clf =
            classifiers_[static_cast<std::size_t>(p)];
        cfg.setIndex(p, static_cast<std::uint8_t>(clf.predict(x)));
    }
    return cfg;
}

SoftmaxClassifier &
AdaptivityModel::classifier(space::Param p)
{
    return classifiers_[static_cast<std::size_t>(p)];
}

const SoftmaxClassifier &
AdaptivityModel::classifier(space::Param p) const
{
    return classifiers_[static_cast<std::size_t>(p)];
}

std::size_t
AdaptivityModel::totalWeights() const
{
    std::size_t total = 0;
    for (const auto &clf : classifiers_)
        total += clf.weights().size();
    return total;
}

std::vector<GroupedExample>
buildExamples(const std::vector<PhaseData> &phases, space::Param p,
              double good_threshold)
{
    const auto &ds = space::DesignSpace::the();
    const std::size_t K = ds.numValues(p);

    std::vector<GroupedExample> examples;
    examples.reserve(phases.size());
    for (const auto &phase : phases) {
        if (phase.evals.empty())
            continue;
        GroupedExample ex;
        ex.x = phase.features;
        ex.classCount.assign(K, 0.0);
        for (const ConfigEval *good :
             phase.goodConfigs(good_threshold)) {
            ex.classCount[good->config.index(p)] += 1.0;
        }
        examples.push_back(std::move(ex));
    }
    return examples;
}

AdaptivityModel
trainModel(const std::vector<PhaseData> &phases,
           const TrainerOptions &options)
{
    if (phases.empty())
        fatal("trainModel with no phases");
    const std::size_t dim = phases.front().features.size();
    for (const auto &ph : phases) {
        if (ph.features.size() != dim)
            fatal("trainModel: inconsistent feature dimensions");
    }

    AdaptivityModel model(dim);
    for (auto p : space::allParams()) {
        const auto examples =
            buildExamples(phases, p, options.goodThreshold);
        const std::size_t K =
            space::DesignSpace::the().numValues(p);

        SoftmaxObjective objective(examples, dim, K, options.lambda);

        // Deterministic all-ones initialisation (Sec. IV-D).
        std::vector<double> w(dim * K, 1.0);
        minimiseCg(objective, w, options.cg);
        model.classifier(p).weights().data() = std::move(w);
    }
    return model;
}

} // namespace adaptsim::ml
