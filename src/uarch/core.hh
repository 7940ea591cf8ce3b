/**
 * @file
 * Core facade: one configured processor with its caches and branch
 * predictor, supporting functional warm-up followed by a detailed
 * timing run (the paper warms structures before every measurement).
 */

#ifndef ADAPTSIM_UARCH_CORE_HH
#define ADAPTSIM_UARCH_CORE_HH

#include <span>

#include "uarch/branch_predictor.hh"
#include "uarch/cache_hierarchy.hh"
#include "uarch/core_config.hh"
#include "uarch/pipeline.hh"
#include "uarch/warm.hh"
#include "workload/wrong_path.hh"

namespace adaptsim::uarch
{

/** One simulated core instance. */
class Core
{
  public:
    /**
     * @param cfg derived configuration.
     * @param wrong_path wrong-path µop source for this workload.
     * @param llc shared LLC this core's L2 misses drain into, or
     *        nullptr for the single-core flat-DRAM model.
     * @param core_id index of this core at the shared level.
     */
    Core(const CoreConfig &cfg,
         workload::WrongPathGenerator &wrong_path,
         SharedLlc *llc = nullptr, unsigned core_id = 0);

    /** A single-core core over already warmed structures (from a
     *  WarmMemo). */
    Core(const CoreConfig &cfg,
         workload::WrongPathGenerator &wrong_path,
         WarmedStructures warmed);

    /** Functionally warm this core's caches and branch predictor
     *  with @p trace (warmStructures; uarch/warm span). */
    void warm(std::span<const isa::MicroOp> trace);

    /**
     * Detailed timing simulation of @p trace on this core.
     * @param observer optional profiling counter sink.
     */
    SimResult run(std::span<const isa::MicroOp> trace,
                  SimObserver *observer = nullptr);

    const CoreConfig &config() const { return cfg_; }

    /** Absolute-time base for shared-LLC contention timing; the chip
     *  loop sets this to the core's elapsed cycles each quantum. */
    void setTimeBase(Cycles base) { caches_.setTimeBase(base); }

  private:
    CoreConfig cfg_;
    CacheHierarchy caches_;
    BranchPredictor bpred_;
    workload::WrongPathGenerator &wrongPath_;
};

} // namespace adaptsim::uarch

#endif // ADAPTSIM_UARCH_CORE_HH
