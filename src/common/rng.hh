/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * adaptsim requires reproducible experiments: every stochastic choice
 * (design-space sampling, synthetic workload behaviour, k-means init)
 * flows from an explicitly seeded Rng.  The generator is xoshiro256**
 * seeded through SplitMix64, which gives high-quality streams from any
 * 64-bit seed, including small consecutive integers.
 */

#ifndef ADAPTSIM_COMMON_RNG_HH
#define ADAPTSIM_COMMON_RNG_HH

#include <cstdint>

namespace adaptsim
{

/**
 * Deterministic random number generator (xoshiro256** + SplitMix64 seeding).
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed; equal seeds give equal streams. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** Next raw 64-bit value. */
    std::uint64_t next();

    /** Uniform integer in [0, bound) using unbiased rejection. */
    std::uint64_t nextBounded(std::uint64_t bound);

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t nextRange(std::int64_t lo, std::int64_t hi);

    /** Uniform double in [0, 1). */
    double nextDouble();

    /** Standard normal deviate (Box-Muller, cached pair). */
    double nextGaussian(); // lint:allow(unused-api) makes test data

    /** Bernoulli trial with probability p of true. */
    bool nextBool(double p = 0.5);

    /**
     * Split off an independent child stream.  Deterministic: the child
     * seed derives from this stream's next value mixed with the tag.
     */
    Rng split(std::uint64_t tag);

  private:
    std::uint64_t state_[4];
    double cachedGaussian_;
    bool hasCachedGaussian_;
};

} // namespace adaptsim

#endif // ADAPTSIM_COMMON_RNG_HH
