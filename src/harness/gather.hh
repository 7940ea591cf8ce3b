/**
 * @file
 * Training-data gathering per Sec. V-C: a shared uniform random
 * sample of the design space, per-phase local neighbourhoods of the
 * best point found, and a final one-at-a-time sweep around the
 * refined best.  The paper runs 1,298 simulations per phase; the
 * counts here are scaled (see DESIGN.md) and controlled by
 * ADAPTSIM_SCALE.  Every evaluation and each phase's profiling run
 * is one EvalRepository phase simulation on GatherOptions::backend
 * (null means "cycle").
 */

#ifndef ADAPTSIM_HARNESS_GATHER_HH
#define ADAPTSIM_HARNESS_GATHER_HH

#include "harness/repository.hh"
#include "ml/trainer.hh"
#include "phase/simpoint.hh"

namespace adaptsim::sim
{
class PerfModel;
}

namespace adaptsim::harness
{

class GatherScheduler;

/** Gathering knobs (defaults already scaled for a laptop run). */
struct GatherOptions
{
    std::size_t sharedRandomConfigs = 64;   ///< paper: 1000
    std::size_t localNeighbours = 16;       ///< paper: 200
    bool oneAtATimeSweep = true;            ///< paper: yes (~93)
    bool progress = true;      ///< per-phase progress lines
    std::uint64_t seed = 2010;

    /** Backend for the evaluation batches; nullptr selects
     *  "cycle".  (Profiling runs always use "cycle"; see
     *  EvalRepository::profile.) */
    const sim::PerfModel *backend = nullptr;

    /** Skip the per-phase profiling-counter run (step 4).  Backend
     *  benchmarks turn this off so the cycle-level profiling cost
     *  does not mask the evaluation-backend cost being measured. */
    bool profileFeatures = true;

    /** Shared phase-memo index for this gather (see
     *  harness/gather_scheduler.hh); nullptr builds a per-call
     *  scheduler over the repository's index file
     *  (GatherScheduler::indexPathFor).  Concurrent gathers may
     *  share one instance — the scheduler is thread-safe. */
    GatherScheduler *scheduler = nullptr;
};

/** Everything gathered about one phase. */
struct GatheredPhase
{
    phase::Phase phase;
    PhaseSpec spec;
    std::vector<ml::ConfigEval> evals;
    ProfileRecord features;

    /** Convert to the ML-facing PhaseData for a feature set. */
    ml::PhaseData toPhaseData(counters::FeatureSet set) const;
};

/** The shared uniform random configuration set (incl. Table III). */
std::vector<space::Configuration>
sharedConfigPool(const GatherOptions &options);

/** The paper's Table III baseline configuration. */
space::Configuration paperBaselineConfig();

/**
 * Gather training data for @p phases (Sec. V-C procedure).  All
 * simulation goes through @p repo, so results are disk-cached.
 */
std::vector<GatheredPhase>
gatherTrainingData(EvalRepository &repo,
                   const std::vector<phase::Phase> &phases,
                   std::uint64_t program_length,
                   std::uint64_t warm_length,
                   const GatherOptions &options);

} // namespace adaptsim::harness

#endif // ADAPTSIM_HARNESS_GATHER_HH
