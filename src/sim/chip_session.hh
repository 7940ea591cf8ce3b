/**
 * @file
 * The multi-core half of the performance-model seam.
 *
 * A ChipSession is to a chip what CoreSession is to one core: it
 * owns per-core simulation state for a co-run mix and persists warm
 * structures across run() calls.  PerfModel::makeChipSession()
 * returns one for any backend:
 *
 *   - The cycle backend overrides it with a session wrapping
 *     uarch::Chip — the detailed shared-LLC contention model.
 *   - Every other backend gets the ProxyChipSession defined here: a
 *     functional (untimed-clock) replay of the mix through real
 *     private tag stacks and a real SharedLlc measures each core's
 *     interference features (LLC occupancy share, shared-miss
 *     ratio, queue delay), which are folded into an *effective*
 *     per-core memory latency; the backend's own CoreSessions then
 *     run per core with that latency.  The analytical interval
 *     backend thus consumes the interference features without
 *     needing a cycle-accurate multi-core loop.
 *
 * A single-core chip bypasses all of this and delegates straight to
 * the backend's CoreSession — bit-identical to the pre-chip seam.
 */

#ifndef ADAPTSIM_SIM_CHIP_SESSION_HH
#define ADAPTSIM_SIM_CHIP_SESSION_HH

#include <memory>
#include <span>
#include <vector>

#include "sim/perf_model.hh"
#include "uarch/chip.hh"

namespace adaptsim::sim
{

/** Per-core shared-resource pressure observed by the last run(). */
struct CoreInterference
{
    double occupancyShare = 0.0;   ///< fraction of LLC lines owned
    double sharedMissRatio = 0.0;  ///< LLC misses / LLC accesses
    double avgQueueCycles = 0.0;   ///< mean bank/MSHR wait per access
};

/** One simulated chip owned by a backend. */
class ChipSession
{
  public:
    virtual ~ChipSession() = default;

    /** Functionally warm one core (private levels + shared LLC). */
    virtual void warm(std::size_t core,
                      std::span<const isa::MicroOp> trace) = 0;

    /**
     * Timed co-run of one trace per core (empty spans idle that
     * core).  @p observers is empty or one entry per core; backends
     * without observer support ignore it.
     */
    virtual uarch::ChipResult
    run(const std::vector<std::span<const isa::MicroOp>> &traces,
        const std::vector<uarch::SimObserver *> &observers = {}) = 0;

    /** Move one core to a new design point (reconfiguration flush
     *  semantics: private state restarts cold). */
    virtual void reconfigureCore(std::size_t core,
                                 const space::Configuration &c) = 0;

    virtual const uarch::ChipConfig &config() const = 0;

    /** Interference features of @p core from the last run(). */
    virtual CoreInterference interference(std::size_t core) const = 0;

    /** Power/performance metrics for one core's run() result. */
    virtual power::Metrics
    metricsFor(std::size_t core, const uarch::SimResult &result) = 0;
};

/**
 * The default backend-agnostic chip session (see file comment).
 * Constructed by PerfModel::makeChipSession()'s base implementation;
 * public so tests can target it directly.
 */
std::unique_ptr<ChipSession> makeProxyChipSession(
    const PerfModel &model, const uarch::ChipConfig &cfg,
    const std::vector<workload::WrongPathGenerator *> &wrong_paths);

} // namespace adaptsim::sim

#endif // ADAPTSIM_SIM_CHIP_SESSION_HH
