/**
 * @file
 * Functional warm-up of a core's caches and branch predictor (the
 * paper warms structures before every measurement, Sec. V-A).
 *
 * warmStructures() replays a warm trace through given structures.
 * A WarmMemo gives the same warmed state for any configuration while
 * replaying each phase's warm trace once per structure size rather
 * than once per configuration (DESIGN.md §10).
 */

#ifndef ADAPTSIM_UARCH_WARM_HH
#define ADAPTSIM_UARCH_WARM_HH

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "common/sync.hh"
#include "isa/micro_op.hh"
#include "uarch/branch_predictor.hh"
#include "uarch/cache.hh"
#include "uarch/cache_hierarchy.hh"
#include "uarch/core_config.hh"

namespace adaptsim::uarch
{

/**
 * Functionally warm @p caches and @p bpred with @p trace (no timing,
 * no statistics) — the "warm for 10M instructions" step of Sec. V-A,
 * scaled.  This is the reference warm-up: a WarmMemo reproduces its
 * result on fresh structures.  It fills the private levels only; a
 * multi-core chip is never warmed functionally.
 */
void warmStructures(CacheHierarchy &caches, BranchPredictor &bpred,
                    std::span<const isa::MicroOp> trace);

/** A core's caches and branch predictor. */
struct WarmedStructures
{
    CacheHierarchy caches;
    BranchPredictor bpred;
};

/**
 * The warm-up of one warm trace, shared by every configuration that
 * replays it.
 *
 * After warmStructures() on fresh structures, each L1 depends only
 * on its own size, the PHT and global history only on the gshare
 * size, and the BTB only on the BTB size.  The L2 sees, in µop
 * order, the L1-I misses and then the L1-D misses (with their
 * write-back flag) of each µop.  So the memo keeps, per size and
 * built on first request, an L1-I and an L1-D snapshot with the list
 * of L2 requests each one's misses made, a direction-predictor
 * snapshot and a BTB snapshot.  warm() copies the snapshots and
 * replays the two request lists, merged by µop index with fetch
 * first, into a fresh L2.  That is exactly warmStructures() on fresh
 * single-core structures (no shared LLC), at the cost of one L2
 * replay instead of a pass over the trace.
 *
 * Thread-safe: missing snapshots are built under the memo's own
 * lock, so concurrent callers never build one twice, and built
 * snapshots are never modified again.
 */
class WarmMemo
{
  public:
    using Trace = std::shared_ptr<const std::vector<isa::MicroOp>>;

    /** @param trace the warm trace (kept alive by the memo). */
    explicit WarmMemo(Trace trace);

    /**
     * Caches and predictor for @p cfg, equal field by field to
     * fresh ones after warmStructures() with the warm trace.
     * Recorded as the uarch/warm span.
     */
    WarmedStructures warm(const CoreConfig &cfg)
        ADAPTSIM_EXCLUDES(mutex_);

  private:
    /** An L1 miss as the L2 saw it: µop index, address, write. */
    struct L2Request
    {
        Addr addr;
        std::uint32_t op;
        bool write;
    };

    /** One warmed L1 and the L2 requests its misses made. */
    struct L1Snapshot
    {
        /** An empty L1 of @p bytes, before the warm pass. */
        explicit L1Snapshot(std::uint64_t bytes)
            : cache(bytes, CoreConfig::l1Assoc,
                    CoreConfig::cacheLineBytes)
        {
        }

        Cache cache;
        std::vector<L2Request> misses;
    };

    /** Build whichever of @p cfg's four snapshots are missing, in
     *  one pass over the trace. */
    void build(const CoreConfig &cfg) ADAPTSIM_REQUIRES(mutex_);

    Trace trace_;
    Mutex mutex_;
    // std::map: references to built entries stay valid while later
    // sizes are inserted, so warm() reads them without the lock.
    std::map<std::uint64_t, L1Snapshot> icache_
        ADAPTSIM_GUARDED_BY(mutex_);   ///< by I-cache bytes
    std::map<std::uint64_t, L1Snapshot> dcache_
        ADAPTSIM_GUARDED_BY(mutex_);   ///< by D-cache bytes
    std::map<int, BranchPredictor> direction_
        ADAPTSIM_GUARDED_BY(mutex_);   ///< by gshare entries
    std::map<int, BranchPredictor> targets_
        ADAPTSIM_GUARDED_BY(mutex_);   ///< by BTB entries
};

} // namespace adaptsim::uarch

#endif // ADAPTSIM_UARCH_WARM_HH
