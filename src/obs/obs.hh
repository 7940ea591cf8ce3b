/**
 * @file
 * Telemetry front door: scoped spans, instrumentation macros, and
 * the process-exit sinks (summary table, JSON dump, Chrome trace).
 *
 * Instrumented code uses the macros, never the classes directly:
 *
 *     OBS_SPAN("gather/phase");          // RAII wall-time span
 *     OBS_COUNTER("repo/hit").add(1);    // cached counter handle
 *
 * OBS_SPAN records the scope's wall time into the global registry
 * histogram "<name>.seconds" and, when a TraceWriter is active,
 * emits a complete Chrome trace event with the calling thread's id.
 *
 * Instrumentation is always compiled in.  Every write site runs once
 * per simulation, pool job, CG run or run(), never once per µop or
 * cycle, so it costs nothing measurable.
 *
 * Env knobs (read by initFromEnv(), see common/env):
 *   ADAPTSIM_METRICS     exit summary ("1" default, "0"/"off",
 *                        anything else = also dump JSON to it)
 *   ADAPTSIM_TRACE       Chrome trace ("0"/"off"/unset = none,
 *                        "1" = adaptsim_trace.json, anything
 *                        else = trace to that path)
 */

#ifndef ADAPTSIM_OBS_OBS_HH
#define ADAPTSIM_OBS_OBS_HH

#include <chrono>
#include <cstdio>
#include <string>

#include "obs/registry.hh"
#include "obs/trace.hh"

namespace adaptsim::obs
{

/** The global "<name>.seconds" histogram backing a span. */
Histogram &spanHistogram(const char *name);

/** RAII wall-time span; prefer the OBS_SPAN macro. */
class ScopedSpan
{
  public:
    ScopedSpan(const char *name, Histogram &hist)
        : name_(name), hist_(hist),
          start_(std::chrono::steady_clock::now())
    {
    }

    ~ScopedSpan()
    {
        const auto end = std::chrono::steady_clock::now();
        hist_.record(
            std::chrono::duration<double>(end - start_).count());
        if (auto *writer = TraceWriter::active())
            writer->completeEvent(name_, start_, end);
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    const char *name_;
    Histogram &hist_;
    std::chrono::steady_clock::time_point start_;
};

/**
 * Read the env knobs, install the active trace writer, and register
 * the process-exit report (summary table on stderr, optional JSON
 * dump, trace flush).  Idempotent; the `paper` driver and
 * long-lived tools call it at the start of main().
 */
void initFromEnv();

/** Render the registry summary (and derived rates) to @p out now. */
void report(std::FILE *out);

/** Machine-readable JSON dump of every registered metric. */
std::string metricsJson();

/** Flush the active trace writer, if any; safe to call anytime. */
void flushTrace();

} // namespace adaptsim::obs

#define ADAPTSIM_OBS_CAT2(a, b) a##b
#define ADAPTSIM_OBS_CAT(a, b) ADAPTSIM_OBS_CAT2(a, b)

/** Time this scope into histogram "name.seconds" (+ trace event). */
#define OBS_SPAN(name)                                               \
    static ::adaptsim::obs::Histogram &ADAPTSIM_OBS_CAT(             \
        obs_span_hist_, __LINE__) =                                  \
        ::adaptsim::obs::spanHistogram(name);                        \
    ::adaptsim::obs::ScopedSpan ADAPTSIM_OBS_CAT(obs_span_,          \
                                                 __LINE__)           \
    {                                                                \
        name, ADAPTSIM_OBS_CAT(obs_span_hist_, __LINE__)             \
    }

/** Cached global counter handle (name must be a literal). */
#define OBS_COUNTER(name)                                            \
    ([]() -> ::adaptsim::obs::Counter & {                            \
        static ::adaptsim::obs::Counter &handle =                    \
            ::adaptsim::obs::Registry::global().counter(name);       \
        return handle;                                               \
    }())

#endif // ADAPTSIM_OBS_OBS_HH
