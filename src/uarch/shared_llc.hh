/**
 * @file
 * Shared last-level cache with bank and MSHR contention.
 *
 * One SharedLlc sits below every core's private L2 on a chip
 * (DESIGN.md §15); its size, banks and MSHRs are the ChipConfig's
 * llc* fields, and its associativity and latencies are constants.  Tags are set-associative with true LRU, like the private
 * uarch::Cache, but each line additionally records the core that
 * filled it so per-core occupancy can be read back as a model
 * feature.  Timing adds three contention terms on top of the hit
 * latency:
 *
 *   bus        fixed request/response transfer latency
 *   bank queue a bank serves one request per `bankService`
 *              cycles; requests arriving while it is busy wait
 *   MSHRs      each bank tracks `llcMshrsPerBank` outstanding
 *              misses; a miss arriving with all MSHRs busy waits
 *              for the earliest one to complete
 *
 * The LLC counts nothing per access: each Outcome is counted once,
 * by the requesting core's CacheHierarchy, into its EventCounts
 * (llcAccesses, llcMisses, llcQueueCycles).
 *
 * Thread-safe by construction: every public entry point takes the one
 * internal Mutex (annotated, common/sync.hh), so concurrent cores —
 * or a future threaded chip loop — can share an instance.  The chip's
 * round-robin loop is single-threaded and deterministic; the lock is
 * for safety, not ordering.
 */

#ifndef ADAPTSIM_UARCH_SHARED_LLC_HH
#define ADAPTSIM_UARCH_SHARED_LLC_HH

#include <cstdint>
#include <vector>

#include "common/sync.hh"
#include "common/types.hh"
#include "uarch/core_config.hh"

namespace adaptsim::uarch
{

/** Banked, multi-core-aware shared L3 model. */
class SharedLlc
{
  public:
    /**
     * All latencies are cycles of the chip's fixed *reference clock*
     * — the clock of a pipeline this deep (the mid-range 12
     * FO4/stage design point) — not of any particular core's clock.
     * Cores whose pipeline depth (and therefore clock) differs
     * convert at the boundary: the shared fabric and DRAM take the
     * same wall-time regardless of how any one core is clocked.
     */
    static constexpr int referenceDepthFo4 = 12;

    /** DRAM latency below the LLC (reference cycles). */
    static constexpr int memLatency = 200;

    /** Ways per set. */
    static constexpr int assoc = 16;

    /** LLC hit latency (reference cycles). */
    static constexpr int hitLatency = 30;

    /** Core↔LLC transfer latency (reference cycles). */
    static constexpr int busLatency = 8;

    /** Bank busy time per request (reference cycles). */
    static constexpr int bankService = 4;

    /** An LLC with @p cfg's llc geometry, shared by its cores. */
    explicit SharedLlc(const ChipConfig &cfg);

    /** Timing and outcome of one access. */
    struct Outcome
    {
        bool hit = false;
        int latency = 0;        ///< total, incl. queueing
        int queueCycles = 0;    ///< bank-queue + MSHR wait share
    };

    /**
     * Timed access by @p core at absolute core-clock time @p now.
     * Misses fill the line (evicting LRU) and mark @p core as owner.
     */
    Outcome access(Addr addr, unsigned core, Cycles now);

    /** Fraction of LLC lines currently owned by @p core. */
    double occupancyShare(unsigned core) const;

  private:
    struct Line
    {
        Addr tag = invalidAddr;
        std::uint32_t lruStamp = 0;
        std::uint16_t owner = 0;
    };

    struct Bank
    {
        Cycles nextFree = 0;
        std::vector<Cycles> mshrs;   ///< outstanding completion times
    };

    /** Tag lookup + fill under mu_; returns hit and updates owner
     *  accounting.  A global clock stamps LRU recency
     *  deterministically. */
    bool lookupFill(Addr addr, unsigned core)
        ADAPTSIM_REQUIRES(mu_);

    /** Panics unless @p core is one of this LLC's cores. */
    void checkCore(unsigned core) const;

    static std::uint64_t blockOf(Addr addr)
    {
        return addr / std::uint64_t(CoreConfig::cacheLineBytes);
    }

    std::uint64_t setIndex(Addr addr) const
    {
        return blockOf(addr) & (numSets_ - 1);
    }

    std::uint64_t bankIndex(Addr addr) const
    {
        return blockOf(addr) & (std::uint64_t(cfg_.llcBanks) - 1);
    }

    const ChipConfig cfg_;   ///< geometry: its llc* fields
    std::uint64_t numSets_;

    mutable Mutex mu_;
    std::vector<Line> lines_ ADAPTSIM_GUARDED_BY(mu_);
    std::vector<Bank> banks_ ADAPTSIM_GUARDED_BY(mu_);
    /** Lines each core filled and still holds. */
    std::vector<std::uint64_t> linesOwned_ ADAPTSIM_GUARDED_BY(mu_);
    std::uint32_t lruClock_ ADAPTSIM_GUARDED_BY(mu_) = 0;
};

} // namespace adaptsim::uarch

#endif // ADAPTSIM_UARCH_SHARED_LLC_HH
