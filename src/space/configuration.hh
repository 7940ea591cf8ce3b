/**
 * @file
 * A point in the Table I design space.
 *
 * Stored as per-parameter value indices (not raw values) so that
 * neighbourhood moves and encoding are trivial; accessors return the
 * concrete hardware value.
 */

#ifndef ADAPTSIM_SPACE_CONFIGURATION_HH
#define ADAPTSIM_SPACE_CONFIGURATION_HH

#include <array>
#include <cstdint>
#include <string>

#include "space/design_space.hh"

namespace adaptsim::space
{

/** One complete microarchitectural configuration. */
class Configuration
{
  public:
    /** Default: smallest value of every parameter. */
    Configuration();

    /** Build from concrete values (each must be legal). */
    static Configuration fromValues(
        const std::array<std::uint64_t, numParams> &values);

    /**
     * The paper's profiling configuration: largest structures and the
     * highest degree of speculation, so resources never saturate while
     * counters are gathered (Sec. III-B1).  Depth is set to the
     * mid-range 12 FO4 used by the baseline.
     */
    static Configuration profiling();

    /** Value index for parameter @p p. */
    std::uint8_t index(Param p) const
    {
        return indices_[static_cast<std::size_t>(p)];
    }

    /** Set the value index for parameter @p p. */
    void setIndex(Param p, std::uint8_t idx);

    /** Concrete hardware value for parameter @p p. */
    std::uint64_t value(Param p) const
    {
        return DesignSpace::the().value(
            p, indices_[static_cast<std::size_t>(p)]);
    }

    /** Set @p p to the legal value @p v. */
    void setValue(Param p, std::uint64_t v);

    /** Mixed-radix encoding, unique per configuration. */
    std::uint64_t encode() const;

    /** Inverse of encode(). */
    static Configuration decode(std::uint64_t code);

    /** "Width=4 ROB=144 ..." rendering. */
    std::string toString() const;

    /** Short fixed-width key used in cache file names. */
    std::string key() const;

    bool operator==(const Configuration &other) const
    {
        return indices_ == other.indices_;
    }

    bool operator!=(const Configuration &other) const
    {
        return !(*this == other);
    }

  private:
    std::array<std::uint8_t, numParams> indices_{};
};

} // namespace adaptsim::space

#endif // ADAPTSIM_SPACE_CONFIGURATION_HH
