#include "common/env.hh"

#include <cmath>
#include <cstdlib>
#include <thread>

#include "common/logging.hh"

namespace adaptsim
{

double
envDouble(const char *name, double fallback)
{
    const char *raw = std::getenv(name);
    if (!raw || !*raw)
        return fallback;
    char *end = nullptr;
    const double v = std::strtod(raw, &end);
    if (end == raw)
        return fallback;
    // strtod accepts "nan" and "inf"; no knob has a use for either,
    // and a NaN bound silently disables every comparison against it.
    if (!std::isfinite(v)) {
        warn(name, "=\"", raw,
             "\" is not a finite number; using the default");
        return fallback;
    }
    return v;
}

long
envLong(const char *name, long fallback)
{
    const char *raw = std::getenv(name);
    if (!raw || !*raw)
        return fallback;
    char *end = nullptr;
    const long v = std::strtol(raw, &end, 10);
    if (end == raw)
        return fallback;
    return v;
}

std::string
envString(const char *name, const std::string &fallback)
{
    const char *raw = std::getenv(name);
    if (!raw || !*raw)
        return fallback;
    return raw;
}

double
experimentScale()
{
    const double s = envDouble("ADAPTSIM_SCALE", 1.0);
    return s > 0.0 ? s : 1.0;
}

std::string
dataDir()
{
    return envString("ADAPTSIM_DATA_DIR", "data");
}

unsigned
numThreads()
{
    const long n = envLong("ADAPTSIM_THREADS", 0);
    if (n > 0)
        return static_cast<unsigned>(n);
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

bool
metricsEnabled()
{
    const std::string v = envString("ADAPTSIM_METRICS", "1");
    return v != "0" && v != "off";
}

std::string
metricsJsonPath()
{
    const std::string v = envString("ADAPTSIM_METRICS", "");
    if (v.empty() || v == "0" || v == "off" || v == "1")
        return "";
    return v;
}

std::string
traceFile()
{
    const std::string v = envString("ADAPTSIM_TRACE", "");
    if (v.empty() || v == "0" || v == "off")
        return "";
    return v == "1" ? "adaptsim_trace.json" : v;
}

} // namespace adaptsim
