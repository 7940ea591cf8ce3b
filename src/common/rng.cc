#include "common/rng.hh"

#include <cmath>

#include "common/logging.hh"

namespace adaptsim
{

namespace
{

std::uint64_t
splitMix64(std::uint64_t &state)
{
    state += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace

Rng::Rng(std::uint64_t seed)
    : cachedGaussian_(0.0), hasCachedGaussian_(false)
{
    std::uint64_t sm = seed;
    for (auto &word : state_)
        word = splitMix64(sm);
}

void
Rng::zeroBound()
{
    panic("Rng::nextBounded called with bound 0");
}

std::int64_t
Rng::nextRange(std::int64_t lo, std::int64_t hi)
{
    if (lo > hi)
        panic("Rng::nextRange with lo > hi");
    const std::uint64_t span =
        static_cast<std::uint64_t>(hi - lo) + 1ULL;
    return lo + static_cast<std::int64_t>(nextBounded(span));
}

double
Rng::nextGaussian()
{
    if (hasCachedGaussian_) {
        hasCachedGaussian_ = false;
        return cachedGaussian_;
    }
    double u1 = nextDouble();
    double u2 = nextDouble();
    while (u1 <= 1e-300)
        u1 = nextDouble();
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * M_PI * u2;
    cachedGaussian_ = r * std::sin(theta);
    hasCachedGaussian_ = true;
    return r * std::cos(theta);
}

Rng
Rng::split(std::uint64_t tag)
{
    return Rng(next() ^ (tag * 0x9e3779b97f4a7c15ULL + 0x7f4a7c15ULL));
}

} // namespace adaptsim
