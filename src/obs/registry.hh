/**
 * @file
 * Thread-safe metrics registry: named counters and span timers.
 *
 * A Counter is one relaxed atomic; a timer (Histogram) is a
 * mutex-guarded {count, sum, min, max}.  Every write site runs once
 * per simulation, pool job or run, never per µop or cycle, so no
 * write path needs to be cheaper than that.
 *
 * Handles returned by counter()/histogram() are stable for the
 * registry's lifetime; asking for an existing name returns the same
 * handle, so `static obs::Counter &c = ...` is the intended
 * call-site idiom (one name lookup per process).
 */

#ifndef ADAPTSIM_OBS_REGISTRY_HH
#define ADAPTSIM_OBS_REGISTRY_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/sync.hh"

namespace adaptsim::obs
{

/** One timer's totals (see Histogram::stats()). */
struct HistogramStats
{
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;   ///< meaningful only when count > 0
    double max = 0.0;   ///< meaningful only when count > 0

    double mean() const { return count ? sum / double(count) : 0.0; }
};

/** Monotonically increasing named value. */
class Counter
{
  public:
    explicit Counter(std::string name) : name_(std::move(name)) {}

    void add(std::uint64_t n = 1)
    {
        value_.fetch_add(n, std::memory_order_relaxed);
    }
    std::uint64_t value() const
    {
        return value_.load(std::memory_order_relaxed);
    }
    const std::string &name() const { return name_; }

    Counter(const Counter &) = delete;
    Counter &operator=(const Counter &) = delete;

  private:
    std::string name_;
    std::atomic<std::uint64_t> value_{0};
};

/** Named span timer: count, sum, min and max of recorded values. */
class Histogram
{
  public:
    explicit Histogram(std::string name) : name_(std::move(name)) {}

    void record(double v);
    HistogramStats stats() const;
    const std::string &name() const { return name_; }

    Histogram(const Histogram &) = delete;
    Histogram &operator=(const Histogram &) = delete;

  private:
    std::string name_;
    mutable Mutex mutex_;
    HistogramStats stats_ ADAPTSIM_GUARDED_BY(mutex_);
};

/** Everything the registry knows, sorted by name. */
struct Snapshot
{
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    std::vector<std::pair<std::string, HistogramStats>> histograms;
};

/** The metric registry; see the file comment. */
class Registry
{
  public:
    Registry() = default;

    Registry(const Registry &) = delete;
    Registry &operator=(const Registry &) = delete;

    /** The process-wide registry every OBS_* macro records into. */
    static Registry &global();

    /** Find-or-create; panics if @p name exists with another kind. */
    Counter &counter(const std::string &name);
    Histogram &histogram(const std::string &name);

    /** Values of every registered metric. */
    Snapshot snapshot() const;

  private:
    mutable Mutex mutex_;
    std::map<std::string, std::unique_ptr<Counter>> counters_
        ADAPTSIM_GUARDED_BY(mutex_);
    std::map<std::string, std::unique_ptr<Histogram>> histograms_
        ADAPTSIM_GUARDED_BY(mutex_);
};

} // namespace adaptsim::obs

#endif // ADAPTSIM_OBS_REGISTRY_HH
