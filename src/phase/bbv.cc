#include "phase/bbv.hh"

#include <algorithm>
#include <cmath>

namespace adaptsim::phase
{

Bbv::Bbv()
    : values_(dimension, 0.0)
{
}

std::size_t
Bbv::project(std::uint32_t bb_id)
{
    // SplitMix-style hash keeps the projection deterministic and
    // spreads block ids uniformly over the dimensions.
    std::uint64_t z = bb_id + 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return static_cast<std::size_t>((z ^ (z >> 31)) % dimension);
}

void
Bbv::addOp(const isa::MicroOp &op)
{
    values_[project(op.bbId)] += 1.0;
    ++ops_;
}

Bbv
Bbv::ofTrace(std::span<const isa::MicroOp> trace)
{
    Bbv bbv;
    for (const auto &op : trace)
        bbv.addOp(op);
    bbv.normalise();
    return bbv;
}

Bbv &
Bbv::operator+=(const Bbv &other)
{
    for (std::size_t i = 0; i < dimension; ++i)
        values_[i] += other.values_[i];
    ops_ += other.ops_;
    return *this;
}

Bbv
Bbv::fromValues(const std::vector<double> &values, std::uint64_t ops)
{
    Bbv bbv;
    const std::size_t n = std::min(values.size(), dimension);
    for (std::size_t i = 0; i < n; ++i)
        bbv.values_[i] = values[i];
    bbv.ops_ = ops;
    return bbv;
}

void
Bbv::normalise()
{
    double total = 0.0;
    for (double v : values_)
        total += v;
    if (total <= 0.0)
        return;
    for (double &v : values_)
        v /= total;
}

double
Bbv::manhattan(const Bbv &other) const
{
    double d = 0.0;
    for (std::size_t i = 0; i < dimension; ++i)
        d += std::abs(values_[i] - other.values_[i]);
    return d;
}

} // namespace adaptsim::phase
