/**
 * @file
 * Reuse-distance monitors for the cache and BTB counters (Table II):
 * block reuse distance, set reuse distance, and the "reduced" set
 * reuse distance that emulates the smallest configurable cache.
 *
 * Distances are measured in accesses of the monitored stream and
 * binned logarithmically.
 */

#ifndef ADAPTSIM_COUNTERS_REUSE_DISTANCE_HH
#define ADAPTSIM_COUNTERS_REUSE_DISTANCE_HH

#include <cstdint>
#include <unordered_map>

#include "common/histogram.hh"
#include "common/types.hh"

namespace adaptsim::counters
{

/** Number of log2 bins used by all reuse/stack histograms. */
inline constexpr std::size_t reuseBins = 18;

/**
 * Histogram of distances (in accesses) between consecutive touches of
 * the same key (cache block, set index, or branch PC).
 */
class ReuseDistanceMonitor
{
  public:
    ReuseDistanceMonitor();

    /** Record an access to @p key (self-counted stream position). */
    void access(std::uint64_t key);

    /**
     * Record an access to @p key at external stream position
     * @p position.  Used with dynamic set sampling: only sampled
     * keys are monitored, but distances are measured in the *global*
     * access stream, so sampled histograms estimate the full ones.
     */
    void accessAt(std::uint64_t key, std::uint64_t position);

    /** True if at least a fraction of keys should be monitored. */
    const Histogram &histogram() const { return hist_; }

    std::uint64_t accesses() const { return accessCount_; }

    void clear();

  private:
    Histogram hist_;
    std::unordered_map<std::uint64_t, std::uint64_t> lastAccess_;
    std::uint64_t accessCount_ = 0;
};

/**
 * Set-index reuse monitor: maps an address to its set in a given cache
 * geometry and records set reuse distances.  Used both at the native
 * geometry ("set reuse distance") and at the smallest configurable
 * geometry ("reduced set reuse distance", Sec. III-B2) which exposes
 * the conflicts a smaller cache would suffer.
 */
class SetReuseMonitor
{
  public:
    /**
     * @param num_sets power-of-two set count of the emulated cache.
     * @param line_bytes cache line size.
     */
    SetReuseMonitor(std::uint64_t num_sets, int line_bytes);

    void access(Addr addr);

    /** Sampled access at a global stream position. */
    void accessAt(Addr addr, std::uint64_t position);

    const Histogram &histogram() const
    {
        return monitor_.histogram();
    }

    std::uint64_t numSets() const { return numSets_; }

    void clear() { monitor_.clear(); }

  private:
    std::uint64_t numSets_;
    int lineBytes_;
    ReuseDistanceMonitor monitor_;
};

} // namespace adaptsim::counters

#endif // ADAPTSIM_COUNTERS_REUSE_DISTANCE_HH
