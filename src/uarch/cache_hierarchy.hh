/**
 * @file
 * Three-level memory hierarchy: split L1 I/D over a unified L2 over
 * flat DRAM.  Returns load-to-use latencies in cycles and counts the
 * events the power model charges.
 *
 * On a multi-core chip the private hierarchy instead drains its L2
 * misses into a SharedLlc (attach one via the constructor): the flat
 * DRAM latency is replaced by the LLC's contention-aware timing, and
 * DRAM is only charged on an LLC miss.  Each LLC access is counted
 * here, once, in the core's EventCounts (llcAccesses, llcMisses,
 * llcQueueCycles).  Without an attached LLC the behaviour is
 * bit-identical to the original single-core model.  Functional
 * warm-up (warmFetch/warmData) fills the private levels only: a
 * chip's cores start cold and every LLC access is timed.
 */

#ifndef ADAPTSIM_UARCH_CACHE_HIERARCHY_HH
#define ADAPTSIM_UARCH_CACHE_HIERARCHY_HH

#include "uarch/cache.hh"
#include "uarch/core_config.hh"
#include "uarch/events.hh"
#include "uarch/shared_llc.hh"

namespace adaptsim::uarch
{

/** L1I + L1D + unified L2 over DRAM or a shared LLC. */
class CacheHierarchy
{
  public:
    /**
     * @param cfg derived core configuration.
     * @param llc shared LLC below the private L2, or nullptr for the
     *        single-core flat-DRAM model.
     * @param core_id this core's index at the shared level.
     */
    explicit CacheHierarchy(const CoreConfig &cfg,
                            SharedLlc *llc = nullptr,
                            unsigned core_id = 0);

    /**
     * Single-core hierarchy over levels built elsewhere (a WarmMemo
     * warms them); their sizes must be @p cfg's.
     */
    CacheHierarchy(const CoreConfig &cfg, Cache icache, Cache dcache,
                   Cache l2);

    /**
     * Instruction fetch of the line containing @p pc.
     * @param now pipeline-local cycle of the access (used only for
     *        shared-LLC contention timing).
     * @return latency in cycles (hit latency on an L1 hit).
     */
    int fetchAccess(Addr pc, EventCounts &ev, SimObserver *obs,
                    Cycles now = 0);

    /**
     * Data access at @p addr.
     * @return load-to-use latency in cycles.
     */
    int dataAccess(Addr addr, bool write, EventCounts &ev,
                   SimObserver *obs, Cycles now = 0);

    /** Warm-mode access to the private levels, without timing or
     *  statistics. */
    void warmFetch(Addr pc);
    void warmData(Addr addr, bool write);

    /**
     * Absolute-time offset added to pipeline-local cycles when
     * timing shared-LLC accesses; the chip's round-robin loop bumps
     * this to the core's elapsed time before each quantum.
     */
    void setTimeBase(Cycles base) { timeBase_ = base; }

    const Cache &icache() const { return icache_; }
    const Cache &dcache() const { return dcache_; }
    const Cache &
    l2cache() const // lint:allow(unused-api) warm-memo state test
    {
        return l2_;
    }

  private:
    CacheHierarchy(const CoreConfig &cfg, Cache icache, Cache dcache,
                   Cache l2, SharedLlc *llc, unsigned core_id);

    /** Timing below a missing L2: shared LLC or flat DRAM. */
    int beyondL2(Addr addr, EventCounts &ev, Cycles now);

    /**
     * Per-program physical placement at the shared level: co-run
     * programs are separate processes, so identical virtual
     * addresses must not alias in the LLC.  A per-core offset in the
     * tag bits keeps each program's lines distinct while leaving the
     * set/bank index bits — and therefore capacity and bank
     * contention — exactly as the virtual stream laid them out.
     */
    Addr physical(Addr addr) const
    {
        return addr + (Addr(coreId_) << 44);
    }

    /**
     * Core-clock ↔ LLC-reference-clock conversion.  LLC timing is
     * specified in cycles of the fixed 12 FO4/stage reference clock
     * (SharedLlc::referenceDepthFo4): the shared fabric and the DRAM
     * behind it take the same wall-time no matter how deep — and
     * therefore how slowly clocked — the requesting core's pipeline
     * is.  Clock period is proportional to depthFo4 plus the latch
     * overhead, so the ratio is an exact small-integer rational and
     * the conversion stays deterministic integer arithmetic.  At the
     * reference depth both ratios are 1 and the conversion is the
     * identity.
     */
    Cycles toLlcTicks(Cycles core_cycles) const
    {
        return core_cycles * corePeriodUnits_ / llcPeriodUnits_;
    }

    /** Reference-clock latency back to core cycles (rounded up). */
    int toCoreCycles(int llc_ticks) const
    {
        return static_cast<int>(
            (std::uint64_t(llc_ticks) * llcPeriodUnits_ +
             corePeriodUnits_ - 1) /
            corePeriodUnits_);
    }

    CoreConfig cfg_;
    Cache icache_;
    Cache dcache_;
    Cache l2_;
    SharedLlc *llc_;
    unsigned coreId_;
    Cycles timeBase_ = 0;
    std::uint64_t corePeriodUnits_ = 1;
    std::uint64_t llcPeriodUnits_ = 1;
};

} // namespace adaptsim::uarch

#endif // ADAPTSIM_UARCH_CACHE_HIERARCHY_HH
