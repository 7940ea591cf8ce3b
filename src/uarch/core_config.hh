/**
 * @file
 * Concrete timing parameters of one simulated core, derived from a
 * point in the Table I design space plus the technology model.
 */

#ifndef ADAPTSIM_UARCH_CORE_CONFIG_HH
#define ADAPTSIM_UARCH_CORE_CONFIG_HH

#include <cstdint>
#include <string>
#include <vector>

#include "space/configuration.hh"

namespace adaptsim::uarch
{

/** All timing-relevant core parameters, fully derived. */
struct CoreConfig
{
    // Raw Table I parameters.
    int width = 4;
    int robSize = 144;
    int iqSize = 48;
    int lsqSize = 32;
    int rfSize = 160;          ///< physical regs per file (int and fp)
    int rfRdPorts = 4;
    int rfWrPorts = 1;
    int gshareEntries = 16384;
    int btbEntries = 1024;
    int maxBranches = 24;
    std::uint64_t icacheBytes = 64 * 1024;
    std::uint64_t dcacheBytes = 32 * 1024;
    std::uint64_t l2Bytes = 1024 * 1024;
    int depthFo4 = 12;

    // Fixed structure geometry.
    static constexpr int cacheLineBytes = 64;
    static constexpr int l1Assoc = 2;
    static constexpr int l2Assoc = 8;
    static constexpr int btbAssoc = 4;

    // Derived timing (filled by fromConfiguration / derive()).
    double clockPeriodSec = 0.0;
    double clockHz = 0.0;
    int numStages = 0;
    int frontendDelay = 0;     ///< fetch→dispatch latency in cycles
    int icacheLatency = 1;     ///< L1-I hit latency (cycles)
    int dcacheLatency = 1;     ///< L1-D hit latency (cycles)
    int l2Latency = 8;         ///< L2 hit latency (cycles)
    int memLatency = 200;      ///< DRAM latency (cycles)

    // Functional unit counts derived from width.
    int numAlu = 4;
    int numMemPorts = 2;
    int numFpu = 2;
    int numMul = 1;

    // Execution latencies (cycles).
    int latIntMul = 3;
    int latIntDiv = 20;
    int latFpAlu = 3;
    int latFpMul = 5;
    int latFpDiv = 24;

    /** Build a fully derived CoreConfig from a design-space point. */
    static CoreConfig fromConfiguration(const space::Configuration &c);

    /** Recompute every derived field from the raw parameters. */
    void derive();

    /** Compact human-readable summary. */
    std::string toString() const;
};

/**
 * One multi-core chip: per-core design-space points plus the shared
 * LLC and interconnect geometry below the private L2s, the one
 * geometry uarch::SharedLlc is built from (its lines are
 * CoreConfig::cacheLineBytes; its latencies are cycles of the
 * SharedLlc reference clock).  A one-core chip has no shared LLC:
 * the controller runs it on a backend's own core session, not on
 * uarch::Chip (DESIGN.md §15).
 */
struct ChipConfig
{
    /** One Table I point per core (adaptivity is per core). */
    std::vector<space::Configuration> coreConfigs;

    // Shared L3 geometry (unused when numCores() == 1).
    std::uint64_t llcBytes = 8 * 1024 * 1024;
    int llcBanks = 8;          ///< power of two
    int llcMshrsPerBank = 8;   ///< outstanding misses per bank

    std::size_t numCores() const { return coreConfigs.size(); }

    /** True when the chip degenerates to the single-core model. */
    bool singleCore() const { return coreConfigs.size() == 1; }

    /** All cores at the same design point. */
    static ChipConfig homogeneous(const space::Configuration &c,
                                  std::size_t cores);
};

} // namespace adaptsim::uarch

#endif // ADAPTSIM_UARCH_CORE_CONFIG_HH
