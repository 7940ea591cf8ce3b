/**
 * @file
 * Shared helper for the ablation benches: split-half validation.
 * Programs are alternately assigned to train/test halves; the model
 * is trained on one half and its held-out phases' predictions are
 * evaluated through the (cached) repository.  Cheaper than full
 * LOOCV while preserving the "never trained on this program" rule.
 */

#ifndef ADAPTSIM_BENCH_ABLATION_COMMON_HH
#define ADAPTSIM_BENCH_ABLATION_COMMON_HH

#include <functional>
#include <set>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "harness/experiment.hh"

namespace adaptsim::paper
{

/** Optional feature transform (e.g. zero a group for ablation). */
using FeatureTransform =
    std::function<std::vector<double>(const std::vector<double> &)>;

/**
 * Train on even-indexed programs, predict the odd ones; return the
 * geomean over held-out programs of relative-to-baseline efficiency.
 */
inline double
splitHalfRelative(harness::Experiment &exp,
                  counters::FeatureSet set,
                  const ml::TrainerOptions &options,
                  const FeatureTransform &transform = nullptr)
{
    const auto &phases = exp.phases();

    // Stable program ordering.
    std::vector<std::string> programs;
    for (const auto &[name, idxs] : exp.phasesByProgram())
        programs.push_back(name);
    std::set<std::string> train_set;
    for (std::size_t i = 0; i < programs.size(); i += 2)
        train_set.insert(programs[i]);

    std::vector<ml::PhaseData> train;
    for (const auto &g : phases) {
        if (!train_set.count(g.phase.workload))
            continue;
        auto d = g.toPhaseData(set);
        if (transform)
            d.features = transform(d.features);
        train.push_back(std::move(d));
    }
    const auto model = ml::trainModel(train, options);

    // Evaluate held-out programs.
    std::vector<double> per_program;
    for (const auto &[name, idxs] : exp.phasesByProgram()) {
        if (train_set.count(name))
            continue;
        const double rel = exp.relativeEfficiency(
            idxs, [&](std::size_t i) {
                auto x = phases[i].toPhaseData(set).features;
                if (transform)
                    x = transform(x);
                const auto cfg = model.predict(x);
                return exp.repository()
                    .evaluate(phases[i].spec, cfg)
                    .efficiency;
            });
        per_program.push_back(rel);
    }
    exp.repository().flush();
    return adaptsim::geomean(per_program);
}

} // namespace adaptsim::paper

#endif // ADAPTSIM_BENCH_ABLATION_COMMON_HH
