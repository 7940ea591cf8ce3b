/**
 * @file
 * Shared experiment driver used by the figure/table benches.
 *
 * Owns the full pipeline of the paper's methodology: build the suite,
 * extract SimPoint phases, gather the Sec. V-C training data through
 * the disk-cached repository, compute the static/dynamic baselines,
 * and produce leave-one-program-out model predictions for both
 * counter sets.  Everything expensive is cached under
 * ADAPTSIM_DATA_DIR, so the first bench invocation pays the gather
 * and subsequent ones are fast.
 */

#ifndef ADAPTSIM_HARNESS_EXPERIMENT_HH
#define ADAPTSIM_HARNESS_EXPERIMENT_HH

#include <map>
#include <memory>
#include <optional>

#include "harness/baselines.hh"
#include "harness/gather.hh"
#include "ml/cross_validation.hh"

namespace adaptsim::harness
{

/** Experiment geometry and knobs (already ADAPTSIM_SCALE-scaled). */
struct ExperimentOptions
{
    std::uint64_t programLength = 400000;
    std::uint64_t intervalLength = 6000;   ///< detailed interval
    std::uint64_t warmLength = 12000;      ///< functional warm-up
    std::size_t phasesPerProgram = 10;
    GatherOptions gather;
    ml::TrainerOptions trainer;
    std::string dataDir;                   ///< simulation cache
    unsigned threads = 1;

    /** Defaults with ADAPTSIM_SCALE / _DATA_DIR / _THREADS applied. */
    static ExperimentOptions fromEnv();
};

/** The prediction outcome for one phase. */
struct ModelResult
{
    space::Configuration config;   ///< LOOCV-predicted configuration
    double efficiency = 0.0;       ///< measured on the phase
};

/** Lazily-prepared shared experiment state. */
class Experiment
{
  public:
    explicit Experiment(
        ExperimentOptions options = ExperimentOptions::fromEnv());

    const ExperimentOptions &options() const { return opt_; }

    EvalRepository &repository() { return *repo_; }

    /** All gathered phases (26 programs × up to 10), gathering on
     *  first use. */
    const std::vector<GatheredPhase> &phases();

    /** The shared uniform configuration pool (incl. Table III). */
    const std::vector<space::Configuration> &sharedPool();

    /** Best overall static configuration (the paper's baseline). */
    const space::Configuration &baselineConfig();

    /** Baseline efficiency on phase @p idx. */
    double baselineEfficiency(std::size_t idx);

    /** LOOCV model predictions evaluated on their phases. */
    const std::vector<ModelResult> &
    modelResults(counters::FeatureSet set);

    /** Phase indices grouped by program, in suite order. */
    const std::map<std::string, std::vector<std::size_t>> &
    phasesByProgram();

    /**
     * Phase-weighted geometric mean of eff(i)/baseline(i) over the
     * given phase indices — the per-program relative efficiency used
     * by Figs. 4 and 6.
     */
    double relativeEfficiency(
        const std::vector<std::size_t> &idxs,
        const std::function<double(std::size_t)> &efficiency_of);

  private:
    void prepare();
    std::vector<ModelResult>
    computeModelResults(counters::FeatureSet set);

    ExperimentOptions opt_;
    std::unique_ptr<EvalRepository> repo_;

    bool prepared_ = false;
    std::vector<GatheredPhase> phases_;
    std::vector<space::Configuration> sharedPool_;
    std::optional<space::Configuration> baseline_;
    std::map<std::string, std::vector<std::size_t>> byProgram_;
    std::optional<std::vector<ModelResult>> basicResults_;
    std::optional<std::vector<ModelResult>> advancedResults_;
};

} // namespace adaptsim::harness

#endif // ADAPTSIM_HARNESS_EXPERIMENT_HH
