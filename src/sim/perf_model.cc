#include "sim/perf_model.hh"

#include <array>

#include "common/logging.hh"
#include "obs/obs.hh"
#include "sim/cycle_level_model.hh"
#include "sim/interval_model.hh"

namespace adaptsim::sim
{

namespace
{

/** One built-in backend plus its per-backend telemetry handles,
 *  resolved once. */
struct Entry
{
    std::unique_ptr<PerfModel> model;
    std::string spanName;            ///< "sim/run/<name>"
    obs::Counter *evals = nullptr;   ///< "backend/<name>/evals"
    obs::Histogram *runHist = nullptr;
};

Entry
makeEntry(std::unique_ptr<PerfModel> model)
{
    Entry entry;
    const std::string name = model->name();
    entry.spanName = "sim/run/" + name;
    entry.evals =
        &obs::Registry::global().counter("backend/" + name + "/evals");
    entry.runHist = &obs::spanHistogram(entry.spanName.c_str());
    entry.model = std::move(model);
    return entry;
}

/**
 * The built-ins, sorted by name.  A function-local static rather
 * than static initializers: adaptsim is a static library, and
 * nothing guarantees a registration TU's initializers survive
 * linking into a binary that never names its symbols.  The
 * initialisation is thread-safe and the table is immutable after
 * it, so lookups take no lock.
 */
const std::array<Entry, 2> &
table()
{
    static const std::array<Entry, 2> entries = {
        makeEntry(std::make_unique<CycleLevelModel>()),
        makeEntry(std::make_unique<IntervalModel>()),
    };
    return entries;
}

} // namespace

const PerfModel &
perfModel(const std::string &name)
{
    for (const auto &entry : table()) {
        if (name == entry.model->name())
            return *entry.model;
    }
    std::string known;
    for (const auto &entry : table())
        known += (known.empty() ? "" : ", ") +
                 std::string(entry.model->name());
    fatal("unknown perf-model backend \"", name, "\" (known: ", known,
          ")");
}

const PerfModel &
resolvePerfModel(const PerfModel *backend)
{
    return backend ? *backend : perfModel("cycle");
}

uarch::SimResult
PerfModel::run(CoreSession &session,
               std::span<const isa::MicroOp> trace,
               uarch::SimObserver *observer) const
{
    // The table entry owns the stable span-name string and the
    // counter/histogram handles for the process lifetime.
    for (const auto &entry : table()) {
        if (entry.model.get() != this)
            continue;
        entry.evals->add(1);
        obs::ScopedSpan span(entry.spanName.c_str(), *entry.runHist);
        return session.run(trace, observer);
    }
    return session.run(trace, observer);
}

} // namespace adaptsim::sim
