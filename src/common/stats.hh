/**
 * @file
 * Summary statistics over sample vectors, for benches and results.
 */

#ifndef ADAPTSIM_COMMON_STATS_HH
#define ADAPTSIM_COMMON_STATS_HH

#include <vector>

namespace adaptsim
{

/** Geometric mean of strictly positive values; 0 for empty input. */
double geomean(const std::vector<double> &values);

/** Arithmetic mean; 0 for empty input. */
double mean(const std::vector<double> &values);

/** Median (lower middle for even sizes); 0 for empty input. */
double median(std::vector<double> values);

/**
 * Linear-interpolated percentile of @p values (p in [0, 100]).
 * Returns 0 for empty input.
 */
double percentile(std::vector<double> values, double p);

/**
 * Empirical CDF evaluated from the right: fraction of values >= x.
 * Matches the paper's "accumulated from the right" ECDF (Fig. 7).
 */
double ecdfFromRight(const std::vector<double> &values, double x);

} // namespace adaptsim

#endif // ADAPTSIM_COMMON_STATS_HH
