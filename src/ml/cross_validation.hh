/**
 * @file
 * Leave-one-program-out cross-validation (Sec. V-D): when predicting
 * for a program's phases, the model has never been trained on any
 * phase of that program.
 */

#ifndef ADAPTSIM_ML_CROSS_VALIDATION_HH
#define ADAPTSIM_ML_CROSS_VALIDATION_HH

#include <vector>

#include "ml/trainer.hh"

namespace adaptsim::ml
{

/** Per-phase LOOCV outcome. */
struct CvPrediction
{
    std::size_t phaseIdx;              ///< index into the input list
    space::Configuration predicted;    ///< model's configuration
};

/**
 * For every phase in @p phases, train on all *other programs'* phases
 * and predict.  Returns one prediction per input phase, in order.
 *
 * The folds, one per held-out program, run on a ThreadPool of
 * min(numThreads(), programs) workers (ADAPTSIM_THREADS).  Each
 * fold trains serially and fills only its own phases' slots, so the
 * result is bit-identical for every thread count.  Fewer than two
 * programs, empty features or mismatched feature dimensions are
 * fatal, checked on the calling thread before any fold starts.
 */
std::vector<CvPrediction>
leaveOneProgramOut(const std::vector<PhaseData> &phases,
                   const TrainerOptions &options = {});

} // namespace adaptsim::ml

#endif // ADAPTSIM_ML_CROSS_VALIDATION_HH
