/**
 * @file
 * General-purpose histogram used throughout the counter machinery.
 *
 * Two binnings are supported:
 *  - Linear:  bin i covers [lo + i*step, lo + (i+1)*step)
 *  - Log2:    bin 0 is value 0, bin i>0 covers [2^(i-1), 2^i)
 * The last bin is an overflow bin capturing everything beyond the range.
 */

#ifndef ADAPTSIM_COMMON_HISTOGRAM_HH
#define ADAPTSIM_COMMON_HISTOGRAM_HH

#include <cstdint>
#include <vector>

namespace adaptsim
{

/** Histogram over non-negative integer samples with weighted counts. */
class Histogram
{
  public:
    enum class Binning { Linear, Log2 };

    Histogram() = default;

    /**
     * Construct a histogram.
     *
     * @param binning linear or log2 bucketing.
     * @param num_bins number of bins including the overflow bin.
     * @param lo lowest representable value (linear only).
     * @param step bin width (linear only).
     */
    Histogram(Binning binning, std::size_t num_bins,
              std::uint64_t lo = 0, std::uint64_t step = 1);

    /** Record @p value with weight @p weight (e.g. cycles). */
    void add(std::uint64_t value, std::uint64_t weight = 1);

    /** Reset all counts, keeping geometry. */
    void clear();

    /** Number of bins (including overflow). */
    std::size_t numBins() const { return counts_.size(); }

    /** Raw count of bin @p i. */
    std::uint64_t count(std::size_t i) const { return counts_.at(i); }

    /** Bin index a given value falls into. */
    std::size_t binIndex(std::uint64_t value) const;

    /** Lower edge of bin @p i (inclusive). */
    std::uint64_t binLowerEdge(std::size_t i) const;

    /** Counts normalised to fractions of total weight (0s if empty). */
    std::vector<double> normalised() const;

    /** Weighted mean of recorded values (bin lower edges for log2). */
    double mean() const;

    Binning binning() const { return binning_; }
    std::uint64_t lo() const { return lo_; }
    std::uint64_t step() const { return step_; }

  private:
    Binning binning_ = Binning::Linear;
    std::uint64_t lo_ = 0;
    std::uint64_t step_ = 1;
    std::vector<std::uint64_t> counts_;
    std::uint64_t totalWeight_ = 0;
    double weightedValueSum_ = 0.0;
};

} // namespace adaptsim

#endif // ADAPTSIM_COMMON_HISTOGRAM_HH
