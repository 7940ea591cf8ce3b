/**
 * @file
 * Leave-one-program-out cross-validation (Sec. V-D): when predicting
 * for a program's phases, the model has never been trained on any
 * phase of that program.  Every fold's 14 classifiers train in one
 * batch of (fold, parameter) jobs (trainModels), so the pool stays
 * busy however few programs there are.
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
 * One fold per held-out program: its training set is built once,
 * and its 14 classifiers are 14 of the programs × 14 jobs that
 * trainModels runs on a ThreadPool of min(numThreads(), jobs)
 * workers (ADAPTSIM_THREADS), one `ml/loocv/job` span each.  Each
 * job fits exactly what trainModel fits for that parameter and
 * fills only its own slot, so the result is bit-identical for every
 * thread count.  Fewer than two programs, empty features or
 * mismatched feature dimensions are fatal, checked on the calling
 * thread before any job starts.
 */
std::vector<CvPrediction>
leaveOneProgramOut(const std::vector<PhaseData> &phases,
                   const TrainerOptions &options = {});

} // namespace adaptsim::ml

#endif // ADAPTSIM_ML_CROSS_VALIDATION_HH
