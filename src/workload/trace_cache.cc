#include "workload/trace_cache.hh"

#include "common/logging.hh"
#include "obs/obs.hh"

namespace adaptsim::workload
{

namespace
{

/** The registry counters of trace-cache activity, the one record of
 *  it, resolved together on first use so the exit report lists every
 *  one (zeros included) once any cache has been used. */
struct TraceCacheMetrics
{
    obs::Counter &hits =
        obs::Registry::global().counter("tracecache/hits");
    obs::Counter &misses =
        obs::Registry::global().counter("tracecache/misses");
    obs::Counter &evictions =
        obs::Registry::global().counter("tracecache/evictions");
    obs::Counter &skipped =
        obs::Registry::global().counter("tracecache/skipped");
};

TraceCacheMetrics &
traceCacheMetrics()
{
    static TraceCacheMetrics metrics;
    return metrics;
}

} // namespace

TraceCache::TraceCache(std::size_t capacity) : capacity_(capacity)
{
    if (capacity_ == 0)
        panic("TraceCache: capacity must be at least 1");
}

TracePtr
TraceCache::get(const Workload &wl, std::uint64_t start,
                std::uint64_t count)
{
    const TraceKey key{wl.uid(), start, count};

    // Generation happens under the lock on purpose: concurrent
    // workers asking for the same interval (the common gather
    // pattern) block briefly and then hit, instead of all paying
    // the generation cost in parallel.
    MutexLock lock(mutex_);
    const auto it = map_.find(key);
    if (it != map_.end()) {
        traceCacheMetrics().hits.add(1);
        lru_.splice(lru_.begin(), lru_, it->second);
        return it->second->trace;
    }

    traceCacheMetrics().misses.add(1);
    auto &cursor = cursors_[key.wid];
    const std::uint64_t skipped_before = cursor.skipped;
    auto trace = std::make_shared<const std::vector<isa::MicroOp>>(
        wl.generate(start, count, cursor));
    traceCacheMetrics().skipped.add(cursor.skipped - skipped_before);
    lru_.push_front(Entry{key, trace});
    map_[key] = lru_.begin();

    while (map_.size() > capacity_) {
        map_.erase(lru_.back().key);
        lru_.pop_back();
        traceCacheMetrics().evictions.add(1);
    }
    return trace;
}

std::size_t
TraceCache::size() const
{
    MutexLock lock(mutex_);
    return map_.size();
}

} // namespace adaptsim::workload
