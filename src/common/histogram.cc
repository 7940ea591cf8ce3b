#include "common/histogram.hh"

#include <algorithm>

#include "common/logging.hh"

namespace adaptsim
{

Histogram::Histogram(Binning binning, std::size_t num_bins,
                     std::uint64_t lo, std::uint64_t step)
    : binning_(binning), lo_(lo), step_(step), counts_(num_bins, 0)
{
    if (num_bins == 0)
        panic("Histogram needs at least one bin");
    if (binning == Binning::Linear && step == 0)
        panic("Histogram with zero step");
}

std::size_t
Histogram::binIndex(std::uint64_t value) const
{
    if (binning_ == Binning::Linear) {
        if (value < lo_)
            return 0;
        const std::uint64_t idx = (value - lo_) / step_;
        return std::min<std::uint64_t>(idx, counts_.size() - 1);
    }
    // Log2: bin 0 holds value 0, bin i>0 holds [2^(i-1), 2^i).
    if (value == 0)
        return 0;
    std::size_t idx = 1;
    std::uint64_t edge = 1;
    while (value >= edge * 2 && idx + 1 < counts_.size()) {
        edge *= 2;
        ++idx;
    }
    if (value >= edge * 2)
        return counts_.size() - 1;
    return idx;
}

std::uint64_t
Histogram::binLowerEdge(std::size_t i) const
{
    if (binning_ == Binning::Linear)
        return lo_ + i * step_;
    if (i == 0)
        return 0;
    return std::uint64_t(1) << (i - 1);
}

void
Histogram::add(std::uint64_t value, std::uint64_t weight)
{
    if (counts_.empty())
        panic("add() on default-constructed Histogram");
    counts_[binIndex(value)] += weight;
    totalWeight_ += weight;
    weightedValueSum_ += static_cast<double>(value) *
                         static_cast<double>(weight);
}

void
Histogram::clear()
{
    std::fill(counts_.begin(), counts_.end(), 0);
    totalWeight_ = 0;
    weightedValueSum_ = 0.0;
}

std::vector<double>
Histogram::normalised() const
{
    std::vector<double> out(counts_.size(), 0.0);
    if (totalWeight_ == 0)
        return out;
    const double inv = 1.0 / static_cast<double>(totalWeight_);
    for (std::size_t i = 0; i < counts_.size(); ++i)
        out[i] = static_cast<double>(counts_[i]) * inv;
    return out;
}

double
Histogram::mean() const
{
    if (totalWeight_ == 0)
        return 0.0;
    return weightedValueSum_ / static_cast<double>(totalWeight_);
}

} // namespace adaptsim
