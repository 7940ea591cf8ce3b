/**
 * @file
 * Dynamic set sampling (Qureshi et al., ISCA'06) as used in Sec. VIII:
 * only a stride-sampled subset of cache sets is monitored, cutting the
 * storage and energy cost of the reuse-distance counters while keeping
 * the histograms statistically representative (Table IV / Fig. 9).
 */

#ifndef ADAPTSIM_COUNTERS_SET_SAMPLING_HH
#define ADAPTSIM_COUNTERS_SET_SAMPLING_HH

#include <cstdint>

#include "common/types.hh"

namespace adaptsim::counters
{

/** Stride-based set sampler over a power-of-two set count. */
class SetSampler
{
  public:
    /**
     * @param total_sets sets in the monitored cache (power of two).
     * @param sampled_sets sets to monitor (power of two ≤ total;
     *        0 means all sets).
     */
    SetSampler(std::uint64_t total_sets, std::uint64_t sampled_sets);

    /** True when the set containing @p set_index is monitored. */
    bool sampled(std::uint64_t set_index) const
    {
        return (set_index & strideMask_) == 0;
    }

    /** Convenience: sample decision for an address. */
    bool sampledAddr(Addr addr, int line_bytes) const
    {
        return sampled((addr / line_bytes) & (totalSets_ - 1));
    }

  private:
    std::uint64_t totalSets_;
    std::uint64_t strideMask_;
};

} // namespace adaptsim::counters

#endif // ADAPTSIM_COUNTERS_SET_SAMPLING_HH
