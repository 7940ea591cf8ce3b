/**
 * @file
 * Basic-block vectors (Sherwood et al.) — the program-behaviour
 * signature used for phase detection and SimPoint-style phase
 * extraction.
 */

#ifndef ADAPTSIM_PHASE_BBV_HH
#define ADAPTSIM_PHASE_BBV_HH

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "isa/micro_op.hh"

namespace adaptsim::phase
{

/**
 * A normalised basic-block execution-frequency vector, randomly
 * projected to a fixed dimensionality (as SimPoint does) so vectors
 * from programs with many static blocks stay cheap to cluster.
 */
class Bbv
{
  public:
    /** Projected dimensionality of every BBV. */
    static constexpr std::size_t dimension = 32;

    Bbv();

    /** Accumulate one executed µop (weights its basic block). */
    void addOp(const isa::MicroOp &op);

    /** Build from a whole interval trace. */
    static Bbv ofTrace(std::span<const isa::MicroOp> trace);

    /**
     * Add another unnormalised BBV's counts (merges the partial
     * vectors of one interval split across pieces of work).  The
     * counts are whole numbers, so merged sums are exact.
     */
    Bbv &operator+=(const Bbv &other);

    /**
     * Rebuild from previously exported values() / opCount() (used
     * when deserializing signature tables).  @p values must hold
     * exactly @ref dimension entries; extra entries are ignored and
     * missing ones read as zero.
     */
    static Bbv fromValues(const std::vector<double> &values,
                          std::uint64_t ops);

    /** L1-normalise (call once the interval is complete). */
    void normalise();

    /** Manhattan distance to another normalised BBV (range [0,2]). */
    double manhattan(const Bbv &other) const;

    const std::vector<double> &values() const { return values_; }

    std::uint64_t opCount() const { return ops_; }

  private:
    /** Deterministic projection of a block id onto a dimension. */
    static std::size_t project(std::uint32_t bb_id);

    std::vector<double> values_;
    std::uint64_t ops_ = 0;
};

} // namespace adaptsim::phase

#endif // ADAPTSIM_PHASE_BBV_HH
