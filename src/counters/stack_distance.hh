/**
 * @file
 * LRU stack-distance monitor (Mattson et al.; Beyls & D'Hollander).
 *
 * The stack distance of an access is the number of *distinct* blocks
 * touched since the previous access to the same block.  Its histogram
 * directly yields the miss ratio of any fully-associative LRU cache:
 * capacity C misses exactly the accesses with distance > C.  The paper
 * uses it to characterise cache capacity requirements (Table II).
 *
 * Implemented with the classic Fenwick-tree formulation: each block's
 * most recent access time is marked in a bit-indexed tree, and the
 * distance is the count of marked times younger than the block's
 * previous access — O(log n) per access instead of an O(distance)
 * stack walk.
 */

#ifndef ADAPTSIM_COUNTERS_STACK_DISTANCE_HH
#define ADAPTSIM_COUNTERS_STACK_DISTANCE_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/histogram.hh"
#include "common/types.hh"

namespace adaptsim::counters
{

/** Exact LRU stack-distance histogram over block addresses. */
class StackDistanceMonitor
{
  public:
    /**
     * @param line_bytes block granularity of the monitored stream.
     */
    explicit StackDistanceMonitor(int line_bytes);

    /** Record an access to @p addr. */
    void access(Addr addr);

    /** Log2-binned histogram of stack distances (re-references). */
    const Histogram &histogram() const { return hist_; }

    /** Accesses to never-before-seen blocks (infinite distance). */
    std::uint64_t
    coldAccesses() const // lint:allow(unused-api) naive-LRU test
    {
        return cold_;
    }

    std::uint64_t accesses() const { return accesses_; }

    void clear();

  private:
    /** Add @p delta at Fenwick position @p i (1-based). */
    void fenwickAdd(std::size_t i, int delta);

    /** Prefix sum of Fenwick positions [1, i]. */
    std::int64_t fenwickSum(std::size_t i) const;

    int lineBytes_;
    Histogram hist_;
    std::unordered_map<Addr, std::uint64_t> lastTime_;
    std::vector<std::int32_t> tree_;   ///< Fenwick tree over times
    std::uint64_t cold_ = 0;
    std::uint64_t accesses_ = 0;
};

} // namespace adaptsim::counters

#endif // ADAPTSIM_COUNTERS_STACK_DISTANCE_HH
