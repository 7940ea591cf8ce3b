/**
 * @file
 * Interval-analysis backend ("interval"): a Karkhanis/Eeckhout-style
 * analytical performance estimate with no per-cycle simulation.
 *
 * The trace is replayed once, linearly, through the *same*
 * CacheHierarchy and BranchPredictor models the detailed pipeline
 * uses, so miss and misprediction events are exact for the correct
 * path.  Execution time is then composed as
 *
 *     cycles = B + sum(penalties)
 *
 * where B is the steady-state bound — the maximum of the dispatch
 * bound ceil(N/width) and the structural throughput bounds of the
 * memory ports and functional units — and each miss event adds the
 * penalty interval analysis assigns it:
 *
 *   - L1-I miss: the extra fetch latency, discounted by the fraction
 *     the out-of-order backend hides (kFetchExposedPct);
 *   - branch mispredict: frontend refill + branch resolution time;
 *   - predicted-taken branch without a BTB target: a 2-cycle
 *     fetch bubble (exactly the detailed model's);
 *   - L1-D load miss to DRAM: an exposed fraction of the memory
 *     latency chosen by a register-taint dependence classifier —
 *     a miss feeding off an in-flight miss (pointer chase) pays
 *     kSerialMissPct, one issued close behind an independent miss
 *     overlaps with it (memory-level parallelism) and pays only
 *     kParallelMissPct, and an isolated miss pays kIsolatedMissPct
 *     (the ROB hides the rest).  L2-hit latencies are assumed
 *     hidden; store latency by the store buffer;
 *   - FP ALU/MUL ops add kFpStallCentiCycles each for dependent-
 *     chain latency stalls the base bound cannot see.
 *
 * All exposed-fraction constants are calibrated once against the
 * cycle-level reference on the 26-program suite and frozen; the
 * accuracy bound is asserted by tests/test_sim.cc (DESIGN.md §11).
 *
 * The synthesised EventCounts carry the exact cache/branch event
 * counts plus deterministic Little's-law occupancy estimates so the
 * power model produces sensible energy numbers; only the IPC error
 * bound is asserted (see tests/test_sim.cc and DESIGN.md §11).
 */

#ifndef ADAPTSIM_SIM_INTERVAL_MODEL_HH
#define ADAPTSIM_SIM_INTERVAL_MODEL_HH

#include "sim/perf_model.hh"

namespace adaptsim::sim
{

/** Analytical interval-analysis backend ("interval"). */
class IntervalModel final : public PerfModel
{
  public:
    /** Distinct nonzero tag keeps interval records from ever
     *  colliding with cycle-level ones in caches (tag 0 is the
     *  cycle-level reserve). */
    static constexpr std::uint64_t kCacheTag = 0x494e5456414c5953ULL;

    /** Branch resolution time beyond the frontend refill: dispatch
     *  to execute of the mispredicted branch (calibrated against
     *  the cycle-level model on the deterministic suite). */
    static constexpr int kBranchResolveCycles = 10;

    /** Exposed percentage of DRAM latency per data miss, by the
     *  dependence class the linear pass assigns (calibrated; see
     *  file comment). */
    static constexpr int kIsolatedMissPct = 25;
    static constexpr int kSerialMissPct = 16;
    static constexpr int kParallelMissPct = 4;

    /** Two independent DRAM misses at most this many ops apart are
     *  considered concurrently in flight (MLP). */
    static constexpr int kParallelWindowOps = 16;

    /** Exposed percentage of an L1-I miss's extra fetch latency. */
    static constexpr int kFetchExposedPct = 30;

    /** Dependent-chain FP stall, in hundredths of a cycle per
     *  FP ALU/MUL op. */
    static constexpr int kFpStallCentiCycles = 15;

    const char *name() const override { return "interval"; }
    std::uint64_t cacheTag() const override { return kCacheTag; }

    /** No per-cycle loop, so sessions ignore the observer;
     *  profiling runs on "cycle". */
    std::unique_ptr<CoreSession>
    makeSession(const uarch::CoreConfig &cfg,
                workload::WrongPathGenerator &wrong_path)
        const override;
};

} // namespace adaptsim::sim

#endif // ADAPTSIM_SIM_INTERVAL_MODEL_HH
