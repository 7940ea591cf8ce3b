/**
 * @file
 * The runtime adaptivity controller — the complete loop of Fig. 2,
 * run once per core of a chip.
 *
 * Stage 1: an online BBV detector watches for phase changes.
 * Stage 2: new phases run one interval on the profiling configuration
 *          while the counter bank gathers Table II counters.
 * Stage 3: the predictive model maps the counters to a configuration;
 *          the core reconfigures (paying the Table V overheads, with
 *          caches flushed) and execution continues.
 *
 * Recurring phases reuse their stored prediction, so reconfiguration
 * and profiling happen only on genuinely new behaviour.
 *
 * One CorePolicy instance per core runs that loop against the core's
 * own counters while all cores co-execute on a shared-LLC chip; a
 * single-core processor is the one-core chip.  A one-core chip runs
 * on any backend's own core session; a multi-core chip runs on the
 * cycle-level uarch::Chip, the only model of the shared LLC, so it
 * needs the "cycle" backend.  A null backend means "cycle".
 * Profiling intervals run on a persistent per-core *solo* session at
 * the profiling configuration, on the "cycle" backend whatever the
 * chip's backend (as EvalRepository::profile runs training
 * profiles) — the predictive model was trained on
 * interference-free profiles, so feeding it nominal-condition
 * counters keeps the feature distribution it learned; the
 * interference itself reaches the timing through the chip model, not
 * the features.  The profiled core sits out the chip interval: its
 * work happened on the profiling core.
 *
 * runStaticChip, the fixed-configuration reference, is the same
 * interval loop with no policy: every core stays on its
 * configuration and nothing is profiled or reconfigured.  Both read
 * every interval's traces through a workload::TraceCache, the
 * caller's or one the run owns.
 */

#ifndef ADAPTSIM_CONTROL_CHIP_CONTROLLER_HH
#define ADAPTSIM_CONTROL_CHIP_CONTROLLER_HH

#include <memory>
#include <unordered_map>
#include <vector>

#include "common/types.hh"
#include "control/core_policy.hh"
#include "counters/feature_vector.hh"
#include "ml/trainer.hh"
#include "sim/perf_model.hh"
#include "uarch/core_config.hh"
#include "workload/trace_cache.hh"
#include "workload/workload.hh"

namespace adaptsim::uarch
{
struct ChipResult;
} // namespace adaptsim::uarch

namespace adaptsim::control
{

/** ChipController knobs. */
struct ChipControllerOptions
{
    std::uint64_t intervalLength = 10000;   ///< µops; positive
    counters::FeatureSet featureSet =
        counters::FeatureSet::Advanced;
    double detectorThreshold = 1.0;
    space::Configuration initialConfig;   ///< every core starts here

    /** Chip geometry; coreConfigs is overwritten with one
     *  initialConfig per workload. */
    uarch::ChipConfig chip;

    /** Optional shared interval-trace cache: replayed runs of the
     *  same workloads (static vs adaptive comparisons) then generate
     *  each interval once instead of once per run.  nullptr: each
     *  run owns a cache of one interval per core. */
    workload::TraceCache *traceCache = nullptr;

    /** Backend for the chip intervals; nullptr selects "cycle".
     *  Any backend runs a one-core chip; a multi-core chip needs
     *  "cycle" (fatal otherwise).  Profiling intervals need observer
     *  callbacks, so they always run on "cycle". */
    const sim::PerfModel *backend = nullptr;
};

/** Shared-LLC pressure one core saw in the last chip interval (all
 *  zero on a one-core chip, which has no shared LLC). */
struct CoreInterference
{
    double occupancyShare = 0.0;   ///< fraction of LLC lines owned
    double sharedMissRatio = 0.0;  ///< LLC misses / LLC accesses
    double avgQueueCycles = 0.0;   ///< mean bank/MSHR wait per access
};

/** Every core's interference in the chip run @p res: its final LLC
 *  occupancy, and the miss ratio and mean queueing of the LLC
 *  accesses in its own events. */
std::vector<CoreInterference>
interferenceOf(const uarch::ChipResult &res);

/** Whole-run outcome of one core's adaptive (or static) execution. */
struct RunStats
{
    std::uint64_t intervals = 0;
    std::uint64_t instructions = 0;
    std::uint64_t phaseChanges = 0;
    std::uint64_t profilingIntervals = 0;
    std::uint64_t reconfigurations = 0;
    Cycles reconfigCycles = 0;

    double seconds = 0.0;
    double joules = 0.0;

    double watts() const
    {
        return seconds > 0.0 ? joules / seconds : 0.0;
    }
    double ips() const
    {
        return seconds > 0.0 ? double(instructions) / seconds : 0.0;
    }
    double efficiency() const;   ///< ips³/W
};

/** Whole-run outcome of a chip execution. */
struct ChipRunStats
{
    std::vector<RunStats> cores;               ///< one per core
    std::vector<CoreInterference> interference;  ///< final

    /** Geometric-mean per-core efficiency (bsq/W each). */
    double meanEfficiency() const;

    /** Sum of per-core committed instructions. */
    std::uint64_t totalInstructions() const;
};

/** N independent predictive policies over one shared-LLC chip. */
class ChipController
{
  public:
    /**
     * @param workloads one program per core (lifetime must cover
     *        the controller's).
     * @param model trained predictive model, shared by all policies
     *        (policies keep independent detector/prediction state).
     * @param options controller knobs.
     */
    ChipController(
        const std::vector<const workload::Workload *> &workloads,
        const ml::AdaptivityModel &model,
        const ChipControllerOptions &options);

    /** Execute @p max_instructions µops per core adaptively. */
    ChipRunStats run(std::uint64_t max_instructions);

    std::size_t numCores() const { return workloads_.size(); }

    /** Core @p i's predictions so far, by detector phase id. */
    const std::unordered_map<std::size_t, space::Configuration> &
    phasePredictions( // lint:allow(unused-api) per-core policy tests
        std::size_t core) const
    {
        return policies_[core].predictions();
    }

  private:
    std::vector<const workload::Workload *> workloads_;
    ChipControllerOptions opt_;

    std::vector<std::unique_ptr<workload::WrongPathGenerator>>
        wrongPaths_;
    std::vector<CorePolicy> policies_;
};

/**
 * Reference point: the controller's interval loop with every core
 * pinned to @p config for the whole run on the same chip geometry.
 * @p trace_cache and @p backend mean what ChipControllerOptions'
 * traceCache and backend do: nullptr selects a run-owned cache and
 * "cycle", and a multi-core chip needs "cycle".  @p interval_length
 * must be positive.
 */
ChipRunStats
runStaticChip(const std::vector<const workload::Workload *> &workloads,
              const space::Configuration &config,
              const uarch::ChipConfig &chip,
              std::uint64_t max_instructions,
              std::uint64_t interval_length = 10000,
              workload::TraceCache *trace_cache = nullptr,
              const sim::PerfModel *backend = nullptr);

} // namespace adaptsim::control

#endif // ADAPTSIM_CONTROL_CHIP_CONTROLLER_HH
