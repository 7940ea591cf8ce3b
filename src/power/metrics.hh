/**
 * @file
 * The paper's performance metric: energy efficiency measured as
 * ips³/Watt (Sec. V-B), plus its performance/energy components.
 */

#ifndef ADAPTSIM_POWER_METRICS_HH
#define ADAPTSIM_POWER_METRICS_HH

#include "power/energy_model.hh"
#include "uarch/core_config.hh"
#include "uarch/events.hh"

namespace adaptsim::power
{

/** Full evaluation of one simulated interval on one configuration. */
struct Metrics
{
    double cycles = 0.0;
    double instructions = 0.0;   ///< committed correct-path ops
    double seconds = 0.0;
    double ipc = 0.0;
    double ips = 0.0;            ///< instructions per second
    double joules = 0.0;
    double watts = 0.0;
    double efficiency = 0.0;     ///< ips³ / Watt
};

/** Compute the paper's metrics from a simulation outcome. */
Metrics computeMetrics(const uarch::CoreConfig &cfg,
                       const uarch::EventCounts &events);

/** Efficiency from its components (ips³/W). */
double efficiencyOf(double ips, double watts);

} // namespace adaptsim::power

#endif // ADAPTSIM_POWER_METRICS_HH
