#include "ml/cross_validation.hh"

#include <algorithm>
#include <set>
#include <string>

#include "common/env.hh"
#include "common/logging.hh"
#include "common/thread_pool.hh"
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
    // other folds are still running.  With these passed, no fold's
    // trainModel can fail.
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

    // One fold per held-out program.  A fold writes only the slots of
    // its own program's phases, so no two folds share a slot, and
    // each trains serially exactly as a one-thread run would.
    const std::vector<std::string> programs(program_set.begin(),
                                            program_set.end());
    std::vector<CvPrediction> out(phases.size());
    ThreadPool pool(static_cast<unsigned>(
        std::min<std::size_t>(numThreads(), programs.size())));
    pool.parallelFor(programs.size(), [&](std::size_t fold) {
        OBS_SPAN("ml/loocv/fold");
        const std::string &held_out = programs[fold];
        std::vector<PhaseData> train;
        train.reserve(phases.size());
        for (const auto &ph : phases) {
            if (ph.workload != held_out)
                train.push_back(ph);
        }
        const AdaptivityModel model = trainModel(train, options);
        for (std::size_t i = 0; i < phases.size(); ++i) {
            if (phases[i].workload != held_out)
                continue;
            out[i].phaseIdx = i;
            out[i].predicted = model.predict(phases[i].features);
        }
    });
    return out;
}

} // namespace adaptsim::ml
