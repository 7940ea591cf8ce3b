/**
 * @file
 * Wattch-style event-driven energy accounting.
 *
 * Per-event energies are derived once from the core configuration via
 * the Cacti-style technology model; a simulation's EventCounts are
 * then converted into a per-structure energy breakdown.  Conditional
 * clock gating is modelled the Wattch way: unused structures still
 * burn a fraction of their active power through the clock tree, and
 * leakage accrues with real time (cycles × period).
 */

#ifndef ADAPTSIM_POWER_ENERGY_MODEL_HH
#define ADAPTSIM_POWER_ENERGY_MODEL_HH

#include <array>
#include <string>

#include "uarch/core_config.hh"
#include "uarch/events.hh"

namespace adaptsim::power
{

/** Structures tracked in the energy breakdown. */
enum class Structure : std::uint8_t
{
    ICache,
    DCache,
    L2Cache,
    RegFile,
    Rob,
    IssueQueue,
    Lsq,
    Bpred,
    FuncUnits,
    ClockTree,
    Dram,
    NumStructures
};

/** Number of breakdown structures. */
inline constexpr std::size_t numStructures =
    static_cast<std::size_t>(Structure::NumStructures);

/** Energy totals of one simulated interval. */
struct EnergyBreakdown
{
    std::array<double, numStructures> dynamicJ{};
    double leakageJ = 0.0;

    double totalDynamicJ() const;
    double totalJ() const { return totalDynamicJ() + leakageJ; }
};

/** Per-configuration energy model. */
class EnergyModel
{
  public:
    explicit EnergyModel(const uarch::CoreConfig &cfg);

    /** Convert event counts into an energy breakdown. */
    EnergyBreakdown evaluate(const uarch::EventCounts &ev) const;

  private:
    uarch::CoreConfig cfg_;

    // Per-event energies in nanojoules.
    double icAccessNj_;
    double dcAccessNj_;
    double l2AccessNj_;
    double rfAccessNj_;
    double robAccessNj_;
    double iqAccessNj_;
    double iqWakeupPerEntryNj_;
    double lsqAccessNj_;
    double lsqSearchPerEntryNj_;
    double gshareAccessNj_;
    double btbAccessNj_;
    double clockPerCycleNj_;
    double leakageW_;
};

} // namespace adaptsim::power

#endif // ADAPTSIM_POWER_ENERGY_MODEL_HH
