#include "ml/trainer.hh"

#include <algorithm>

#include "common/env.hh"
#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "obs/obs.hh"

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
buildExamples(std::span<const PhaseData *const> phases, space::Param p,
              double good_threshold)
{
    const auto &ds = space::DesignSpace::the();
    const std::size_t K = ds.numValues(p);

    std::vector<GroupedExample> examples;
    examples.reserve(phases.size());
    for (const PhaseData *phase : phases) {
        if (phase->evals.empty())
            continue;
        GroupedExample ex;
        ex.x = phase->features;
        ex.classCount.assign(K, 0.0);
        for (const ConfigEval *good :
             phase->goodConfigs(good_threshold)) {
            ex.classCount[good->config.index(p)] += 1.0;
        }
        examples.push_back(std::move(ex));
    }
    return examples;
}

std::vector<AdaptivityModel>
trainModels(std::span<const TrainingSet> sets,
            const TrainerOptions &options, const char *job_span)
{
    // Inputs are checked here, on the calling thread: fatal() exits
    // the process, which a pool worker must never do mid-batch.
    std::vector<std::size_t> dims;
    dims.reserve(sets.size());
    for (const TrainingSet &set : sets) {
        if (set.empty())
            fatal("trainModel with no phases");
        const std::size_t dim = set.front()->features.size();
        for (const PhaseData *ph : set) {
            if (ph->features.size() != dim)
                fatal("trainModel: inconsistent feature dimensions");
        }
        dims.push_back(dim);
    }

    // One job per (set, parameter) classifier, largest class count
    // first: K changes no result, and the longest fits then start
    // early instead of forming the batch's tail.
    struct Job
    {
        std::size_t set;
        space::Param param;
        std::size_t classes;
    };
    const auto &ds = space::DesignSpace::the();
    std::vector<Job> jobs;
    jobs.reserve(sets.size() * space::numParams);
    for (std::size_t s = 0; s < sets.size(); ++s) {
        for (auto p : space::allParams())
            jobs.push_back(Job{s, p, ds.numValues(p)});
    }
    std::stable_sort(jobs.begin(), jobs.end(),
                     [](const Job &a, const Job &b) {
                         return a.classes > b.classes;
                     });

    // Each job fits exactly what a one-classifier-at-a-time run fits
    // (same examples, all-ones start, CG) and writes only its own
    // slot, so the weights are bit-identical for every thread count.
    std::vector<std::vector<double>> weights(jobs.size());
    obs::Histogram &span_hist = obs::spanHistogram(job_span);
    ThreadPool pool(static_cast<unsigned>(
        std::min<std::size_t>(numThreads(), jobs.size())));
    pool.parallelFor(jobs.size(), [&](std::size_t j) {
        obs::ScopedSpan span(job_span, span_hist);
        const Job &job = jobs[j];
        const std::size_t dim = dims[job.set];
        const auto examples = buildExamples(sets[job.set], job.param,
                                            options.goodThreshold);
        SoftmaxObjective objective(examples, dim, job.classes,
                                   options.lambda);
        // Deterministic all-ones initialisation (Sec. IV-D).
        std::vector<double> w(dim * job.classes, 1.0);
        minimiseCg(objective, w, options.cg);
        weights[j] = std::move(w);
    });

    std::vector<AdaptivityModel> models;
    models.reserve(sets.size());
    for (std::size_t dim : dims)
        models.emplace_back(dim);
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        models[jobs[j].set].classifier(jobs[j].param).weights().data() =
            std::move(weights[j]);
    }
    return models;
}

AdaptivityModel
trainModel(const std::vector<PhaseData> &phases,
           const TrainerOptions &options)
{
    TrainingSet set;
    set.reserve(phases.size());
    for (const auto &ph : phases)
        set.push_back(&ph);
    return std::move(
        trainModels({&set, 1}, options, "ml/train/job").front());
}

} // namespace adaptsim::ml
