#include "ml/cross_validation.hh"

#include <algorithm>
#include <set>
#include <string>

#include "common/logging.hh"
#include "obs/obs.hh"

namespace adaptsim::ml
{

std::vector<CvPrediction>
leaveOneProgramOut(const std::vector<PhaseData> &phases,
                   const TrainerOptions &options)
{
    OBS_SPAN("ml/loocv");

    // Every input check runs here, on the calling thread: fatal()
    // exits the process, which a pool worker must never do while
    // training jobs are still running.  With these passed, no fold's
    // training can fail.
    std::set<std::string> program_set;
    for (const auto &ph : phases)
        program_set.insert(ph.workload);
    if (program_set.size() < 2) {
        fatal("leaveOneProgramOut needs at least two programs, got ",
              program_set.size());
    }
    const std::size_t dim = phases.front().features.size();
    if (dim == 0)
        fatal("leaveOneProgramOut: phases have no features");
    for (const auto &ph : phases) {
        if (ph.features.size() != dim)
            fatal("leaveOneProgramOut: inconsistent feature dimensions");
    }

    // One fold per held-out program, its training set built once.
    // The folds' programs × 14 classifiers train together as one
    // batch of jobs; each phase is then predicted by its own fold's
    // model, exactly as a one-fold-at-a-time run would.
    const std::vector<std::string> programs(program_set.begin(),
                                            program_set.end());
    std::vector<TrainingSet> train(programs.size());
    for (std::size_t fold = 0; fold < programs.size(); ++fold) {
        train[fold].reserve(phases.size());
        for (const auto &ph : phases) {
            if (ph.workload != programs[fold])
                train[fold].push_back(&ph);
        }
    }
    const auto models = trainModels(train, options, "ml/loocv/job");

    std::vector<CvPrediction> out(phases.size());
    for (std::size_t i = 0; i < phases.size(); ++i) {
        const auto fold = static_cast<std::size_t>(
            std::lower_bound(programs.begin(), programs.end(),
                             phases[i].workload) -
            programs.begin());
        out[i].phaseIdx = i;
        out[i].predicted = models[fold].predict(phases[i].features);
    }
    return out;
}

} // namespace adaptsim::ml
