/**
 * @file
 * The 14-parameter microarchitectural design space of Table I.
 *
 * Width, ROB, IQ, LSQ, RF size, RF read/write ports, gshare size, BTB
 * size, in-flight branches, L1I/L1D/L2 sizes and pipeline depth (FO4
 * per stage) — 627 billion points in total.
 */

#ifndef ADAPTSIM_SPACE_DESIGN_SPACE_HH
#define ADAPTSIM_SPACE_DESIGN_SPACE_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace adaptsim::space
{

/** The fourteen configurable microarchitectural parameters (Table I). */
enum class Param : std::uint8_t
{
    Width,        ///< pipeline width: 2, 4, 6, 8
    RobSize,      ///< reorder buffer entries: 32..160 step 8
    IqSize,       ///< issue queue entries: 8..80 step 8
    LsqSize,      ///< load/store queue entries: 8..80 step 8
    RfSize,       ///< physical registers per file: 40..160 step 8
    RfRdPorts,    ///< register file read ports: 2..16 step 2
    RfWrPorts,    ///< register file write ports: 1..8 step 1
    GshareSize,   ///< gshare PHT entries: 1K..32K x2
    BtbSize,      ///< BTB entries: 1K, 2K, 4K
    MaxBranches,  ///< in-flight branches allowed: 8, 16, 24, 32
    ICacheSize,   ///< L1 I-cache bytes: 8K..128K x2
    DCacheSize,   ///< L1 D-cache bytes: 8K..128K x2
    L2CacheSize,  ///< unified L2 bytes: 256K..4M x2
    Depth,        ///< pipeline depth as FO4 delay/stage: 9..36 step 3
    NumParams
};

/** Number of parameters (14). */
inline constexpr std::size_t numParams =
    static_cast<std::size_t>(Param::NumParams);

/** All parameters, for range-for iteration. */
std::array<Param, numParams> allParams();

/**
 * Static description of the design space: legal values per parameter.
 *
 * The space is immutable and shared; obtain it via the()
 */
class DesignSpace
{
  public:
    /** The canonical Table I space. */
    static const DesignSpace &the();

    /** Short name of a parameter ("Width", "ROB", ...). */
    const std::string &name(Param p) const;

    /** Number of legal values for @p p. */
    std::size_t numValues(Param p) const;

    /** The @p idx-th legal value of @p p (ascending order). */
    std::uint64_t value(Param p, std::size_t idx) const;

    /** All legal values of @p p. */
    const std::vector<std::uint64_t> &values(Param p) const;

    /**
     * Index of legal value @p v for @p p; fatal() if @p v is not a
     * legal value of the parameter.
     */
    std::size_t indexOf(Param p, std::uint64_t v) const;

    /** Total number of configurations (~627 billion). */
    double totalPoints() const;

    /** Sum over parameters of their value counts (number of classes). */
    std::size_t totalValueCount() const;

  private:
    DesignSpace();

    std::array<std::string, numParams> names_;
    std::array<std::vector<std::uint64_t>, numParams> values_;
};

} // namespace adaptsim::space

#endif // ADAPTSIM_SPACE_DESIGN_SPACE_HH
