#include "sim/perf_model.hh"

#include <algorithm>
#include <map>
#include <mutex>

#include "common/sync.hh"

#include "common/env.hh"
#include "common/logging.hh"
#include "obs/obs.hh"
#include "sim/cycle_level_model.hh"
#include "sim/interval_model.hh"

namespace adaptsim::sim
{

namespace
{

/** Registry state: name -> backend, plus per-backend telemetry
 *  handles resolved once at registration.  An ordered map keeps
 *  perfModelNames() (and the unknown-name error message) sorted. */
struct RegistryEntry
{
    std::unique_ptr<PerfModel> model;
#if ADAPTSIM_OBS_ENABLED
    std::string spanName;            ///< "sim/run/<name>"
    obs::Counter *evals = nullptr;   ///< "backend/<name>/evals"
    obs::Histogram *runHist = nullptr;
#endif
};

struct ModelRegistry
{
    Mutex mutex;
    std::map<std::string, RegistryEntry> entries
        ADAPTSIM_GUARDED_BY(mutex);
};

ModelRegistry &
registry()
{
    static ModelRegistry r;
    return r;
}

void
registerLocked(ModelRegistry &r, std::unique_ptr<PerfModel> model)
    ADAPTSIM_REQUIRES(r.mutex)
{
    const std::string name = model->name();
    RegistryEntry entry;
    entry.model = std::move(model);
#if ADAPTSIM_OBS_ENABLED
    entry.spanName = "sim/run/" + name;
    entry.evals = &obs::Registry::global().counter(
        "backend/" + name + "/evals");
    entry.runHist = &obs::spanHistogram(entry.spanName.c_str());
#endif
    if (!r.entries.emplace(name, std::move(entry)).second)
        fatal("perf-model backend registered twice: ", name);
}

/**
 * Built-in registration is lazy (first registry access) rather than
 * via static initializers: adaptsim is a static library, and nothing
 * guarantees a dedicated registration TU's initializers survive
 * linking into a binary that never names its symbols.
 */
void
ensureBuiltins(ModelRegistry &r)
{
    static std::once_flag once;
    std::call_once(once, [&r]() {
        MutexLock lock(r.mutex);
        registerLocked(r, std::make_unique<CycleLevelModel>());
        registerLocked(r, std::make_unique<IntervalModel>());
    });
}

const RegistryEntry *
findEntry(const std::string &name)
{
    ModelRegistry &r = registry();
    ensureBuiltins(r);
    MutexLock lock(r.mutex);
    const auto it = r.entries.find(name);
    return it == r.entries.end() ? nullptr : &it->second;
}

} // namespace

void
registerPerfModel(std::unique_ptr<PerfModel> model)
{
    ModelRegistry &r = registry();
    ensureBuiltins(r);
    MutexLock lock(r.mutex);
    registerLocked(r, std::move(model));
}

const PerfModel *
findPerfModel(const std::string &name)
{
    const RegistryEntry *entry = findEntry(name);
    return entry ? entry->model.get() : nullptr;
}

const PerfModel &
perfModel(const std::string &name)
{
    if (const PerfModel *model = findPerfModel(name))
        return *model;
    std::string known;
    for (const auto &n : perfModelNames())
        known += (known.empty() ? "" : ", ") + n;
    fatal("unknown perf-model backend \"", name, "\" (registered: ",
          known, "); check ADAPTSIM_BACKEND");
}

const PerfModel &
defaultPerfModel()
{
    return perfModel(backendName());
}

std::vector<std::string>
perfModelNames()
{
    ModelRegistry &r = registry();
    ensureBuiltins(r);
    MutexLock lock(r.mutex);
    std::vector<std::string> names;
    names.reserve(r.entries.size());
    for (const auto &[name, entry] : r.entries)
        names.push_back(name);
    return names;
}

uarch::SimResult
PerfModel::run(CoreSession &session,
               std::span<const isa::MicroOp> trace,
               uarch::SimObserver *observer) const
{
#if ADAPTSIM_OBS_ENABLED
    // The registry entry owns the stable span-name string and the
    // counter/histogram handles; entries are never removed, so the
    // pointer is valid for the process lifetime.
    const RegistryEntry *entry = findEntry(name());
    if (entry != nullptr) {
        entry->evals->add(1);
        obs::ScopedSpan span(entry->spanName.c_str(),
                             *entry->runHist);
        return session.run(trace, observer);
    }
#endif
    return session.run(trace, observer);
}

power::Metrics
PerfModel::evaluate(const space::Configuration &config,
                    workload::WrongPathGenerator &wrong_path,
                    std::span<const isa::MicroOp> warm_trace,
                    std::span<const isa::MicroOp> detail_trace) const
{
    const auto cc = uarch::CoreConfig::fromConfiguration(config);
    const auto session = makeSession(cc, wrong_path);
    if (!warm_trace.empty())
        session->warm(warm_trace);
    const auto result = run(*session, detail_trace);
    return session->metricsFor(result);
}

} // namespace adaptsim::sim
