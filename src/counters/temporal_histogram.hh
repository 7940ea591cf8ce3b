/**
 * @file
 * Temporal histograms — the paper's key hardware-counter novelty
 * (Sec. III-B2).
 *
 * A temporal histogram records, for each possible usage level of a
 * structure, the number of *cycles* the structure spent at that level
 * (e.g. "100 cycles with 16 IQ entries used").  Unlike an average
 * occupancy counter it preserves the shape of the demand distribution,
 * which is what lets the model size structures correctly.
 */

#ifndef ADAPTSIM_COUNTERS_TEMPORAL_HISTOGRAM_HH
#define ADAPTSIM_COUNTERS_TEMPORAL_HISTOGRAM_HH

#include "common/histogram.hh"

namespace adaptsim::counters
{

/** Cycle-weighted usage histogram over one profiled interval. */
class TemporalHistogram
{
  public:
    TemporalHistogram() = default;

    /**
     * @param max_value highest representable usage level.
     * @param num_bins bins to quantise the [0, max_value] range into.
     */
    TemporalHistogram(std::uint64_t max_value, std::size_t num_bins);

    /** Record @p cycles cycles spent at usage level @p value. */
    void record(std::uint64_t value, std::uint64_t cycles = 1);

    /** Lowest usage level of bin @p i. */
    std::uint64_t binValue(std::size_t i) const
    {
        return hist_.binLowerEdge(i);
    }

    std::size_t numBins() const { return hist_.numBins(); }

    /** Cycle-weighted mean usage. */
    double meanUsage() const { return hist_.mean(); }

    /** Bin fractions (sum to 1 over recorded cycles). */
    std::vector<double> normalised() const
    {
        return hist_.normalised();
    }

    /** Reset for a new interval. */
    void clear() { hist_.clear(); }

    const Histogram &raw() const { return hist_; }

  private:
    Histogram hist_;
};

} // namespace adaptsim::counters

#endif // ADAPTSIM_COUNTERS_TEMPORAL_HISTOGRAM_HH
