/**
 * @file
 * Test helper: the total weight a Histogram holds, summed over its
 * bins.
 */

#ifndef ADAPTSIM_TESTS_HISTOGRAM_TOTAL_HH
#define ADAPTSIM_TESTS_HISTOGRAM_TOTAL_HH

#include <cstdint>

#include "common/histogram.hh"

namespace adaptsim::test
{

/** Sum of @p h's bin counts, overflow bin included. */
inline std::uint64_t
histogramTotal(const Histogram &h)
{
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < h.numBins(); ++i)
        total += h.count(i);
    return total;
}

} // namespace adaptsim::test

#endif // ADAPTSIM_TESTS_HISTOGRAM_TOTAL_HH
