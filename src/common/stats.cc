#include "common/stats.hh"

#include <algorithm>
#include <cmath>

namespace adaptsim
{

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double v : values) {
        if (v <= 0.0)
            return 0.0;
        log_sum += std::log(v);
    }
    return std::exp(log_sum / static_cast<double>(values.size()));
}

double
mean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double s = 0.0;
    for (double v : values)
        s += v;
    return s / static_cast<double>(values.size());
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    const std::size_t mid = (values.size() - 1) / 2;
    std::nth_element(values.begin(), values.begin() + mid, values.end());
    return values[mid];
}

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    p = std::clamp(p, 0.0, 100.0);
    const double pos = p / 100.0 *
                       static_cast<double>(values.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] * (1.0 - frac) + values[hi] * frac;
}

double
ecdfFromRight(const std::vector<double> &values, double x)
{
    if (values.empty())
        return 0.0;
    std::size_t at_least = 0;
    for (double v : values) {
        if (v >= x)
            ++at_least;
    }
    return static_cast<double>(at_least) /
           static_cast<double>(values.size());
}

} // namespace adaptsim
