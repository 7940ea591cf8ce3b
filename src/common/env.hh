/**
 * @file
 * Environment-variable knobs shared by benches and examples.
 */

#ifndef ADAPTSIM_COMMON_ENV_HH
#define ADAPTSIM_COMMON_ENV_HH

#include <string>

namespace adaptsim
{

/** Read a double env var, returning @p fallback when unset/invalid
 *  (non-finite values such as "nan" and "inf" are invalid). */
double envDouble(const char *name, double fallback);

/** Read an integer env var, returning @p fallback when unset/invalid. */
long envLong(const char *name, long fallback);

/** Read a string env var, returning @p fallback when unset. */
std::string envString(const char *name, const std::string &fallback);

/** ADAPTSIM_SCALE: global experiment scale multiplier (default 1.0). */
double experimentScale();

/** ADAPTSIM_DATA_DIR: shared on-disk simulation cache (default ./data). */
std::string dataDir();

/** ADAPTSIM_THREADS: evaluation threads, also the cap on the local
 *  pools of the SimPoint walk and of training (default hw
 *  concurrency). */
unsigned numThreads();

/** ADAPTSIM_METRICS: exit metrics summary.  Unset/"1" enables the
 *  table; "0"/"off" disables it; any other value is additionally
 *  treated as a path for a machine-readable JSON dump. */
bool metricsEnabled();

/** Path for the JSON metrics dump, empty when none requested. */
std::string metricsJsonPath();

/** ADAPTSIM_TRACE: Chrome trace-event output path, empty when
 *  capture is off.  Unset/"0"/"off" disables it; "1" traces to
 *  "adaptsim_trace.json"; any other value is the path itself. */
std::string traceFile();

} // namespace adaptsim

#endif // ADAPTSIM_COMMON_ENV_HH
