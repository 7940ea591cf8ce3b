/**
 * @file
 * Test helper: how much the obs registry's counters grew.
 *
 * The registry is the one record of repository, trace-cache and
 * gather-memo activity, and its counters are process-wide, so a test
 * reads what its own work added rather than absolute values.
 */

#ifndef ADAPTSIM_TESTS_COUNTER_DELTA_HH
#define ADAPTSIM_TESTS_COUNTER_DELTA_HH

#include <cstdint>
#include <string>

#include "obs/registry.hh"

namespace adaptsim::test
{

/** Counter growth since construction. */
class CounterDelta
{
  public:
    /** Growth of registry counter @p name since construction. */
    std::uint64_t
    operator()(const std::string &name) const
    {
        std::uint64_t before = 0;
        for (const auto &[n, v] : start_.counters) {
            if (n == name)
                before = v;
        }
        return obs::Registry::global().counter(name).value() - before;
    }

  private:
    obs::Snapshot start_ = obs::Registry::global().snapshot();
};

} // namespace adaptsim::test

#endif // ADAPTSIM_TESTS_COUNTER_DELTA_HH
