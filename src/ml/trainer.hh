/**
 * @file
 * Training of the full adaptivity model: one soft-max classifier per
 * microarchitectural parameter (eq. 1's conditional-independence
 * factorisation), fit by conjugate gradients on the good-configuration
 * sets (within 5% of each phase's best, Sec. IV-D).  The
 * classifiers are independent, so trainModels fits each (training
 * set, parameter) pair as one job on a local thread pool; LOOCV
 * trains all its folds through it in one batch.
 */

#ifndef ADAPTSIM_ML_TRAINER_HH
#define ADAPTSIM_ML_TRAINER_HH

#include <array>
#include <span>
#include <string>
#include <vector>

#include "ml/conjugate_gradient.hh"
#include "ml/softmax.hh"
#include "space/configuration.hh"

namespace adaptsim::ml
{

/** Evaluation of one configuration on one phase. */
struct ConfigEval
{
    space::Configuration config;
    double efficiency;   ///< ips³/W on that phase
};

/** Everything the model sees about one phase. */
struct PhaseData
{
    std::string workload;
    std::size_t phaseIndex = 0;
    double weight = 0.0;              ///< SimPoint cluster weight
    std::vector<double> features;     ///< active counter set
    std::vector<ConfigEval> evals;    ///< sampled configurations

    /** Highest sampled efficiency. */
    double bestEfficiency() const;

    /** The best-efficiency configuration among the samples. */
    const ConfigEval &best() const;

    /** Configurations within @p threshold (e.g. 0.95) of the best. */
    std::vector<const ConfigEval *>
    goodConfigs(double threshold) const;
};

/** A training set: phases owned elsewhere, in training order. */
using TrainingSet = std::vector<const PhaseData *>;

/** Training knobs (paper defaults). */
struct TrainerOptions
{
    double lambda = 0.5;          ///< L2 regularisation (Sec. IV-D)
    double goodThreshold = 0.95;  ///< "within 5% of the best"
    CgOptions cg;
};

/** The paper's predictive model: 14 per-parameter classifiers. */
class AdaptivityModel
{
  public:
    AdaptivityModel() = default;

    /** Untrained model (all-ones weights) of dimension @p dim. */
    explicit AdaptivityModel(std::size_t dim);

    /**
     * Predict the best configuration for a phase's counters:
     * independent argmax per parameter (eq. 2 with eq. 8-9).
     */
    space::Configuration predict(std::span<const double> x) const;

    SoftmaxClassifier &classifier(space::Param p);
    const SoftmaxClassifier &classifier(space::Param p) const;

    std::size_t featureDim() const { return dim_; }

    /** Total number of weights across all 14 classifiers. */
    std::size_t totalWeights() const;

  private:
    std::size_t dim_ = 0;
    std::array<SoftmaxClassifier, space::numParams> classifiers_;
};

/**
 * Fit the model on @p phases (each contributes its good-config set).
 * Grouped-likelihood training; deterministic.  trainModels over the
 * one set, its jobs timed as `ml/train/job` spans.
 */
AdaptivityModel trainModel(const std::vector<PhaseData> &phases,
                           const TrainerOptions &options = {});

/**
 * Fit one model per training set in @p sets, each bit-identical to
 * trainModel on that set alone.  The sets × 14 (set, parameter)
 * classifiers are one job each, queued largest class count first,
 * on a local ThreadPool of min(numThreads(), jobs) workers
 * (ADAPTSIM_THREADS); each job records a @p job_span span.  An empty
 * set or mismatched feature dimensions within a set are fatal,
 * checked on the calling thread before any job starts.
 */
std::vector<AdaptivityModel>
trainModels(std::span<const TrainingSet> sets,
            const TrainerOptions &options, const char *job_span);

/**
 * Build the grouped training examples of one parameter (exposed for
 * tests and ablation studies).
 */
std::vector<GroupedExample>
buildExamples(std::span<const PhaseData *const> phases, space::Param p,
              double good_threshold);

} // namespace adaptsim::ml

#endif // ADAPTSIM_ML_TRAINER_HH
