#include "control/chip_controller.hh"

#include <cmath>
#include <optional>
#include <string_view>

#include "common/logging.hh"
#include "control/reconfig_cost.hh"
#include "obs/obs.hh"
#include "power/metrics.hh"
#include "uarch/chip.hh"

namespace adaptsim::control
{

namespace
{

/**
 * The chip a controller run executes on.  A one-core chip is the
 * requested backend's own CoreSession, run through PerfModel::run so
 * the per-backend telemetry stays; a multi-core chip is the
 * cycle-level uarch::Chip, the only model of the shared LLC.
 */
class SimulatedChip
{
  public:
    SimulatedChip(
        const sim::PerfModel &backend, const uarch::ChipConfig &cfg,
        const std::vector<workload::WrongPathGenerator *> &wrong_paths)
        : backend_(backend), wrongPath_(wrong_paths.at(0))
    {
        if (cfg.singleCore()) {
            session_ = backend_.makeSession(
                uarch::CoreConfig::fromConfiguration(cfg.coreConfigs[0]),
                *wrongPath_);
            return;
        }
        if (std::string_view(backend_.name()) != "cycle")
            fatal("a ", cfg.numCores(),
                  "-core chip needs the \"cycle\" backend (got \"",
                  backend_.name(),
                  "\"): only uarch::Chip models the shared LLC");
        chip_.emplace(cfg, wrong_paths);
    }

    /** Timed co-run of one trace per core (an empty span idles that
     *  core). */
    uarch::ChipResult
    run(const std::vector<std::span<const isa::MicroOp>> &traces)
    {
        if (chip_)
            return chip_->run(traces);
        uarch::ChipResult res;
        res.cores.resize(1);
        res.occupancyShare.assign(1, 0.0);
        if (!traces.at(0).empty())
            res.cores[0] = backend_.run(*session_, traces[0]);
        return res;
    }

    /** Reconfiguration flush: the core's private state restarts
     *  cold (a chip's shared LLC keeps its contents). */
    void
    reconfigureCore(std::size_t core, const space::Configuration &c)
    {
        if (chip_)
            chip_->reconfigureCore(core, c);
        else
            session_ = backend_.makeSession(
                uarch::CoreConfig::fromConfiguration(c), *wrongPath_);
    }

  private:
    const sim::PerfModel &backend_;
    workload::WrongPathGenerator *wrongPath_;
    std::unique_ptr<sim::CoreSession> session_;   ///< one-core chip
    std::optional<uarch::Chip> chip_;             ///< multi-core chip
};

using WrongPaths =
    std::vector<std::unique_ptr<workload::WrongPathGenerator>>;

/** One wrong-path generator per core, seeded from its workload
 *  with @p salt; @p who names the caller in fatal errors. */
WrongPaths
makeWrongPaths(const std::vector<const workload::Workload *> &workloads,
               std::uint64_t salt, const char *who)
{
    if (workloads.empty())
        fatal(who, ": need at least one workload");
    WrongPaths out;
    out.reserve(workloads.size());
    for (std::size_t i = 0; i < workloads.size(); ++i) {
        const auto *wl = workloads[i];
        if (!wl)
            fatal(who, ": null workload for core ", i);
        out.push_back(std::make_unique<workload::WrongPathGenerator>(
            wl->averageParams(), wl->seed() ^ salt));
    }
    return out;
}

/** Charge one executed interval of @p events on @p cc to @p cs. */
void
chargeInterval(RunStats &cs, const uarch::CoreConfig &cc,
               const uarch::EventCounts &events)
{
    const auto m = power::computeMetrics(cc, events);
    cs.seconds += m.seconds;
    cs.joules += m.joules;
    cs.instructions += events.committedOps;
    ++cs.intervals;
}

/**
 * The Fig. 2 interval loop over one chip whose cores all start on
 * opt.initialConfig.  With @p policies null every core stays there
 * and nothing is profiled or reconfigured: the static reference.
 * Every interval reads through a trace cache, opt.traceCache or one
 * this run owns.
 */
ChipRunStats
runIntervals(
    const std::vector<const workload::Workload *> &workloads,
    const ChipControllerOptions &opt, const WrongPaths &wrong_paths,
    std::vector<CorePolicy> *policies, std::uint64_t max_instructions)
{
    const std::size_t n = workloads.size();
    const sim::PerfModel &backend = sim::resolvePerfModel(opt.backend);

    uarch::ChipConfig chip_cfg = opt.chip;
    chip_cfg.coreConfigs.assign(n, opt.initialConfig);
    std::vector<workload::WrongPathGenerator *> wpp;
    wpp.reserve(n);
    for (const auto &wp : wrong_paths)
        wpp.push_back(wp.get());
    SimulatedChip chip(backend, chip_cfg, wpp);

    std::vector<space::Configuration> current(n, opt.initialConfig);
    std::vector<uarch::CoreConfig> current_cc(
        n, uarch::CoreConfig::fromConfiguration(opt.initialConfig));

    // Persistent per-core solo profiling sessions at the profiling
    // configuration (nominal, interference-free counters — the
    // distribution the model was trained on).
    const sim::PerfModel &profile_backend = sim::perfModel("cycle");
    const auto profiling_cc = uarch::CoreConfig::fromConfiguration(
        space::Configuration::profiling());
    std::vector<std::unique_ptr<sim::CoreSession>> profilers;
    if (policies) {
        profilers.reserve(n);
        for (const auto &wp : wrong_paths)
            profilers.push_back(
                profile_backend.makeSession(profiling_cc, *wp));
    }

    // A run without a shared cache owns one that holds an interval
    // of every core; misses walk each program sequentially.
    std::optional<workload::TraceCache> own_cache;
    workload::TraceCache &cache =
        opt.traceCache ? *opt.traceCache : own_cache.emplace(n);

    ChipRunStats stats;
    stats.cores.resize(n);
    stats.interference.resize(n);

    const std::uint64_t length = opt.intervalLength;
    const std::uint64_t num_intervals = max_instructions / length;
    std::vector<workload::TracePtr> traces(n);
    std::vector<std::span<const isa::MicroOp>> chip_traces(n);
    std::vector<bool> just_reconfigured(n);
    for (std::uint64_t i = 0; i < num_intervals; ++i) {
        for (std::size_t c = 0; c < n; ++c)
            traces[c] = cache.get(*workloads[c], i * length, length);
        bool any_chip_work = false;

        for (std::size_t c = 0; c < n; ++c) {
            const std::span<const isa::MicroOp> trace = *traces[c];
            RunStats &cs = stats.cores[c];
            space::Configuration target = current[c];
            bool profiled = false;
            if (policies) {
                // Stage 1 per core.
                CorePolicy &policy = (*policies)[c];
                const auto obs = policy.observe(trace);
                if (obs.phaseChanged)
                    ++cs.phaseChanges;
                if (obs.newPhase) {
                    // Stage 2: solo profile at nominal conditions;
                    // the core sits out this chip interval.
                    counters::CounterBank bank(profiling_cc);
                    uarch::SimResult prof;
                    {
                        OBS_SPAN("control/profile");
                        prof = profile_backend.run(*profilers[c],
                                                   trace, &bank);
                    }
                    bank.finalise(prof.events);
                    chargeInterval(cs, profiling_cc, prof.events);
                    ++cs.profilingIntervals;
                    profiled = true;

                    // Stage 3 per core.
                    target = policy.predictFrom(obs.phaseId, bank);
                } else if (const auto *p =
                               policy.prediction(obs.phaseId)) {
                    target = *p;
                }
            }
            chip_traces[c] =
                profiled ? std::span<const isa::MicroOp>() : trace;
            any_chip_work |= !profiled;

            just_reconfigured[c] = target != current[c];
            if (just_reconfigured[c]) {
                const ReconfigCostModel cost_model(current_cc[c]);
                const Cycles penalty =
                    cost_model.transitionCycles(current[c], target);
                cs.reconfigCycles += penalty;
                cs.seconds +=
                    double(penalty) * current_cc[c].clockPeriodSec;
                ++cs.reconfigurations;
                OBS_COUNTER("control/reconfigurations").add(1);

                current[c] = target;
                current_cc[c] =
                    uarch::CoreConfig::fromConfiguration(target);
                // Reconfiguration flush: the chip rebuilds the
                // core's private state cold.
                chip.reconfigureCore(c, target);
            }
        }

        if (!any_chip_work)
            continue;

        const auto res = chip.run(chip_traces);
        stats.interference = interferenceOf(res);
        for (std::size_t c = 0; c < n; ++c) {
            if (chip_traces[c].empty())
                continue;
            RunStats &cs = stats.cores[c];
            const double joules_before = cs.joules;
            chargeInterval(cs, current_cc[c], res.cores[c].events);
            if (just_reconfigured[c]) {
                // ~3% energy overhead on the reconfiguring interval
                // (powering transitions, flush traffic) — Sec. VIII.
                cs.joules +=
                    (cs.joules - joules_before) *
                    ReconfigCostModel::intervalEnergyOverhead;
            }
        }
    }
    return stats;
}

} // namespace

std::vector<CoreInterference>
interferenceOf(const uarch::ChipResult &res)
{
    std::vector<CoreInterference> out(res.cores.size());
    for (std::size_t c = 0; c < out.size(); ++c) {
        const auto &ev = res.cores[c].events;
        out[c].occupancyShare = res.occupancyShare[c];
        if (ev.llcAccesses) {
            const double accesses = double(ev.llcAccesses);
            out[c].sharedMissRatio = double(ev.llcMisses) / accesses;
            out[c].avgQueueCycles = double(ev.llcQueueCycles) / accesses;
        }
    }
    return out;
}

double
RunStats::efficiency() const
{
    return power::efficiencyOf(ips(), watts());
}

double
ChipRunStats::meanEfficiency() const
{
    if (cores.empty())
        return 0.0;
    double log_sum = 0.0;
    std::size_t counted = 0;
    for (const auto &c : cores) {
        const double e = c.efficiency();
        if (e > 0.0) {
            log_sum += std::log(e);
            ++counted;
        }
    }
    return counted ? std::exp(log_sum / double(counted)) : 0.0;
}

std::uint64_t
ChipRunStats::totalInstructions() const
{
    std::uint64_t total = 0;
    for (const auto &c : cores)
        total += c.instructions;
    return total;
}

ChipController::ChipController(
    const std::vector<const workload::Workload *> &workloads,
    const ml::AdaptivityModel &model,
    const ChipControllerOptions &options)
    : workloads_(workloads), opt_(options),
      wrongPaths_(makeWrongPaths(workloads, 0x771ULL, "ChipController"))
{
    if (opt_.intervalLength == 0)
        fatal("ChipController: intervalLength must be positive");
    policies_.reserve(workloads_.size());
    for (std::size_t i = 0; i < workloads_.size(); ++i)
        policies_.emplace_back(model, opt_.featureSet,
                               opt_.detectorThreshold);
}

ChipRunStats
ChipController::run(std::uint64_t max_instructions)
{
    return runIntervals(workloads_, opt_, wrongPaths_, &policies_,
                        max_instructions);
}

ChipRunStats
runStaticChip(const std::vector<const workload::Workload *> &workloads,
              const space::Configuration &config,
              const uarch::ChipConfig &chip,
              std::uint64_t max_instructions,
              std::uint64_t interval_length,
              workload::TraceCache *trace_cache,
              const sim::PerfModel *backend)
{
    if (interval_length == 0)
        fatal("runStaticChip: interval_length must be positive");
    ChipControllerOptions opt;
    opt.intervalLength = interval_length;
    opt.initialConfig = config;
    opt.chip = chip;
    opt.traceCache = trace_cache;
    opt.backend = backend;
    const auto wrong_paths =
        makeWrongPaths(workloads, 0x57a71cULL, "runStaticChip");
    return runIntervals(workloads, opt, wrong_paths, nullptr,
                        max_instructions);
}

} // namespace adaptsim::control
