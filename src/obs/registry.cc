#include "obs/registry.hh"

#include <algorithm>

#include "common/logging.hh"

namespace adaptsim::obs
{

namespace
{

/** The entry for @p name in @p own, created on first use; panics if
 *  @p other already holds that name as the other kind. */
template <typename Metric, typename Other>
Metric &
findOrCreate(std::map<std::string, std::unique_ptr<Metric>> &own,
             const std::map<std::string, std::unique_ptr<Other>> &other,
             const std::string &name, const char *otherKind)
{
    if (other.count(name))
        panic("obs metric '", name, "' already registered as a ",
              otherKind);
    auto &slot = own[name];
    if (!slot)
        slot = std::make_unique<Metric>(name);
    return *slot;
}

} // namespace

Registry &
Registry::global()
{
    static Registry registry;
    return registry;
}

Counter &
Registry::counter(const std::string &name)
{
    MutexLock lock(mutex_);
    return findOrCreate(counters_, histograms_, name, "histogram");
}

Histogram &
Registry::histogram(const std::string &name)
{
    MutexLock lock(mutex_);
    return findOrCreate(histograms_, counters_, name, "counter");
}

Snapshot
Registry::snapshot() const
{
    Snapshot snap;
    MutexLock lock(mutex_);
    for (const auto &[name, c] : counters_)
        snap.counters.emplace_back(name, c->value());
    for (const auto &[name, h] : histograms_)
        snap.histograms.emplace_back(name, h->stats());
    return snap;
}

void
Histogram::record(double v)
{
    MutexLock lock(mutex_);
    auto &s = stats_;
    s.min = s.count ? std::min(s.min, v) : v;
    s.max = s.count ? std::max(s.max, v) : v;
    ++s.count;
    s.sum += v;
}

HistogramStats
Histogram::stats() const
{
    MutexLock lock(mutex_);
    return stats_;
}

} // namespace adaptsim::obs
