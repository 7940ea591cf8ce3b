#include "counters/set_sampling.hh"

#include "common/logging.hh"

namespace adaptsim::counters
{

SetSampler::SetSampler(std::uint64_t total_sets,
                       std::uint64_t sampled_sets)
    : totalSets_(total_sets)
{
    if (total_sets == 0 || (total_sets & (total_sets - 1)) != 0)
        fatal("SetSampler: total sets must be a power of two");
    const std::uint64_t sampled =
        sampled_sets == 0 ? total_sets : sampled_sets;
    if ((sampled & (sampled - 1)) != 0 || sampled > total_sets) {
        fatal("SetSampler: sampled sets must be a power of two ≤ "
              "total sets");
    }
    // Monitor every (total/sampled)-th set.
    strideMask_ = total_sets / sampled - 1;
}

} // namespace adaptsim::counters
