/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * adaptsim requires reproducible experiments: every stochastic choice
 * (design-space sampling, synthetic workload behaviour, k-means init)
 * flows from an explicitly seeded Rng.  The generator is xoshiro256**
 * seeded through SplitMix64, which gives high-quality streams from any
 * 64-bit seed, including small consecutive integers.  The per-draw
 * calls (next, nextBounded, nextDouble, nextBool) are defined here so
 * the workload generators' inner loops inline them.
 */

#ifndef ADAPTSIM_COMMON_RNG_HH
#define ADAPTSIM_COMMON_RNG_HH

#include <bit>
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
    std::uint64_t
    next()
    {
        const std::uint64_t result = std::rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;

        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = std::rotl(state_[3], 45);

        return result;
    }

    /** Uniform integer in [0, bound) using unbiased rejection;
     *  bound 0 panics. */
    std::uint64_t
    nextBounded(std::uint64_t bound)
    {
        if (bound == 0)
            zeroBound();
        // Rejection sampling to remove modulo bias.
        const std::uint64_t threshold = (~bound + 1) % bound;
        for (;;) {
            const std::uint64_t r = next();
            if (r >= threshold)
                return r % bound;
        }
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t nextRange(std::int64_t lo, std::int64_t hi);

    /** Uniform double in [0, 1). */
    double
    nextDouble()
    {
        // 53 high bits give a uniform double in [0, 1).
        return (next() >> 11) * (1.0 / 9007199254740992.0);
    }

    /** Standard normal deviate (Box-Muller, cached pair). */
    double nextGaussian(); // lint:allow(unused-api) makes test data

    /** Bernoulli trial with probability p of true. */
    bool nextBool(double p = 0.5) { return nextDouble() < p; }

    /**
     * Split off an independent child stream.  Deterministic: the child
     * seed derives from this stream's next value mixed with the tag.
     */
    Rng split(std::uint64_t tag);

  private:
    /** Panics: nextBounded's bound was 0.  Out of line, so the
     *  inlined draw carries no logging code. */
    [[noreturn]] static void zeroBound();

    std::uint64_t state_[4];
    double cachedGaussian_;
    bool hasCachedGaussian_;
};

} // namespace adaptsim

#endif // ADAPTSIM_COMMON_RNG_HH
