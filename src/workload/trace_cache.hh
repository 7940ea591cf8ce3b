/**
 * @file
 * In-memory LRU cache of generated interval traces.
 *
 * During training-data gathering each phase's trace is replayed under
 * O(100) configurations; caching the generated µops makes replay the
 * only per-configuration cost.  The cache is thread-safe (one
 * internal mutex) so a single instance can be shared by every
 * worker of a gather's ThreadPool (common/thread_pool.hh): the first
 * worker to need a trace generates it while the others block on the
 * lock and then hit, so each distinct (workload, start, count)
 * interval is generated exactly once per residency.
 *
 * Lookups are keyed by a cheap POD TraceKey — the workload's 64-bit
 * uid plus the interval bounds — rather than a per-lookup string
 * build, so a cache hit costs one hash of three integers.
 *
 * Misses generate through one Workload::Cursor per workload, so a
 * sequential walk of a program (the controller's intervals, a
 * phase's warm-up followed by its detail window) costs one pass over
 * the program rather than a replay from each segment start per
 * miss.  Misses that jump around fall back to a cold reseek.
 *
 * Capacity is fixed at construction (default 48 traces).  The cache
 * keeps no counters of its own: hits, misses, evictions and
 * reseek-replayed µops are counted only in the obs registry, as
 * tracecache/hits, tracecache/misses, tracecache/evictions and
 * tracecache/skipped.
 */

#ifndef ADAPTSIM_WORKLOAD_TRACE_CACHE_HH
#define ADAPTSIM_WORKLOAD_TRACE_CACHE_HH

#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/sync.hh"
#include "isa/micro_op.hh"
#include "workload/workload.hh"

namespace adaptsim::workload
{

/** A generated interval trace shared between simulations. */
using TracePtr = std::shared_ptr<const std::vector<isa::MicroOp>>;

/** POD cache key: workload uid + interval bounds. */
struct TraceKey
{
    std::uint64_t wid = 0;    ///< Workload::uid()
    std::uint64_t start = 0;
    std::uint64_t count = 0;

    bool operator==(const TraceKey &) const = default;
};

/** Mixing hash over the three key words (splitmix64 finalizer). */
struct TraceKeyHash
{
    static std::uint64_t
    mix(std::uint64_t x)
    {
        x += 0x9e3779b97f4a7c15ULL;
        x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
        x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
        return x ^ (x >> 31);
    }

    std::size_t
    operator()(const TraceKey &k) const
    {
        return static_cast<std::size_t>(
            mix(k.wid ^ mix(k.start ^ mix(k.count))));
    }
};

/** Thread-safe LRU cache of interval traces. */
class TraceCache
{
  public:
    /** Default capacity in traces. */
    static constexpr std::size_t defaultCapacity = 48;

    /** @param capacity max resident traces; must be at least 1
     *  (panics on 0). */
    explicit TraceCache(std::size_t capacity = defaultCapacity);

    /**
     * Fetch (generating if needed) the trace of @p count µops of
     * @p wl starting at absolute position @p start.
     */
    TracePtr get(const Workload &wl, std::uint64_t start,
                 std::uint64_t count);

    std::size_t size() const;
    std::size_t capacity() const { return capacity_; }

  private:
    struct Entry
    {
        TraceKey key;
        TracePtr trace;
    };

    std::size_t capacity_;
    mutable Mutex mutex_;
    /// front = most recent
    std::list<Entry> lru_ ADAPTSIM_GUARDED_BY(mutex_);
    std::unordered_map<TraceKey, std::list<Entry>::iterator,
                       TraceKeyHash>
        map_ ADAPTSIM_GUARDED_BY(mutex_);
    /// one generation cursor per workload, keyed by Workload::uid()
    std::unordered_map<std::uint64_t, Workload::Cursor>
        cursors_ ADAPTSIM_GUARDED_BY(mutex_);
};

} // namespace adaptsim::workload

#endif // ADAPTSIM_WORKLOAD_TRACE_CACHE_HH
