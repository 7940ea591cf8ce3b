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
        res.sharedMissRatio.assign(1, 0.0);
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

    power::Metrics
    metricsFor(std::size_t core, const uarch::SimResult &result) const
    {
        if (chip_)
            return power::computeMetrics(chip_->core(core).config(),
                                         result.events);
        return session_->metricsFor(result);
    }

  private:
    const sim::PerfModel &backend_;
    workload::WrongPathGenerator *wrongPath_;
    std::unique_ptr<sim::CoreSession> session_;   ///< one-core chip
    std::optional<uarch::Chip> chip_;             ///< multi-core chip
};

/** Every core's interference in the chip run @p res. */
std::vector<CoreInterference>
interferenceOf(const uarch::ChipResult &res)
{
    std::vector<CoreInterference> out(res.cores.size());
    for (std::size_t c = 0; c < out.size(); ++c) {
        const auto &ev = res.cores[c].events;
        out[c].occupancyShare = res.occupancyShare[c];
        out[c].sharedMissRatio = res.sharedMissRatio[c];
        out[c].avgQueueCycles =
            ev.llcAccesses
                ? double(ev.llcQueueCycles) / double(ev.llcAccesses)
                : 0.0;
    }
    return out;
}

/**
 * One interval's trace per core: replayed from the shared trace
 * cache when there is one, else generated through a per-core
 * resumable cursor.  The spans stay valid until the next fetch().
 */
class IntervalTraces
{
  public:
    IntervalTraces(
        const std::vector<const workload::Workload *> &workloads,
        std::uint64_t interval_length, workload::TraceCache *cache)
        : workloads_(workloads), length_(interval_length),
          cache_(cache), hold_(workloads.size()),
          local_(workloads.size()), cursors_(workloads.size()),
          spans_(workloads.size())
    {
    }

    const std::vector<std::span<const isa::MicroOp>> &
    fetch(std::uint64_t interval)
    {
        const std::uint64_t start = interval * length_;
        for (std::size_t c = 0; c < workloads_.size(); ++c) {
            const auto &wl = *workloads_[c];
            if (cache_) {
                hold_[c] = cache_->get(wl, start, length_);
                spans_[c] = *hold_[c];
            } else {
                local_[c] = wl.generate(start, length_, cursors_[c]);
                spans_[c] = local_[c];
            }
        }
        return spans_;
    }

  private:
    const std::vector<const workload::Workload *> &workloads_;
    const std::uint64_t length_;
    workload::TraceCache *const cache_;
    std::vector<workload::TracePtr> hold_;
    std::vector<std::vector<isa::MicroOp>> local_;
    std::vector<workload::Workload::Cursor> cursors_;
    std::vector<std::span<const isa::MicroOp>> spans_;
};

} // namespace

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
      backend_(sim::resolvePerfModel(options.backend)),
      profileBackend_(sim::profilingPerfModel(backend_))
{
    const std::size_t n = workloads_.size();
    if (n == 0)
        fatal("ChipController: need at least one workload");
    for (std::size_t i = 0; i < n; ++i) {
        if (!workloads_[i])
            fatal("ChipController: null workload for core ", i);
    }

    opt_.chip.coreConfigs.assign(n, opt_.initialConfig);

    wrongPaths_.reserve(n);
    policies_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        const auto &wl = *workloads_[i];
        wrongPaths_.push_back(
            std::make_unique<workload::WrongPathGenerator>(
                wl.averageParams(), wl.seed() ^ 0x771ULL));
        policies_.emplace_back(model, opt_.featureSet,
                               opt_.detectorThreshold);
    }
}

ChipRunStats
ChipController::run(std::uint64_t max_instructions)
{
    const std::size_t n = workloads_.size();
    ChipRunStats stats;
    stats.cores.resize(n);
    stats.interference.resize(n);

    const std::uint64_t interval = opt_.intervalLength;
    const std::uint64_t num_intervals = max_instructions / interval;

    std::vector<space::Configuration> current(n,
                                              opt_.initialConfig);
    std::vector<uarch::CoreConfig> current_cc(
        n, uarch::CoreConfig::fromConfiguration(opt_.initialConfig));

    std::vector<workload::WrongPathGenerator *> wpp;
    wpp.reserve(n);
    for (const auto &wp : wrongPaths_)
        wpp.push_back(wp.get());
    SimulatedChip chip(backend_, opt_.chip, wpp);

    // Persistent per-core solo profiling sessions at the profiling
    // configuration (nominal, interference-free counters — the
    // distribution the model was trained on).
    const auto profiling = space::Configuration::profiling();
    const auto profiling_cc =
        uarch::CoreConfig::fromConfiguration(profiling);
    std::vector<std::unique_ptr<sim::CoreSession>> profilers;
    profilers.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        profilers.push_back(
            profileBackend_.makeSession(profiling_cc,
                                        *wrongPaths_[i]));

    IntervalTraces fetcher(workloads_, interval, opt_.traceCache);
    for (std::uint64_t i = 0; i < num_intervals; ++i) {
        const auto &traces = fetcher.fetch(i);
        std::vector<std::span<const isa::MicroOp>> chip_traces(n);
        std::vector<bool> just_reconfigured(n, false);
        bool any_chip_work = false;

        for (std::size_t c = 0; c < n; ++c) {
            // Stage 1 per core.
            const auto obs = policies_[c].observe(traces[c]);
            if (obs.phaseChanged)
                ++stats.cores[c].phaseChanges;

            space::Configuration target = current[c];
            if (obs.newPhase) {
                // Stage 2: solo profile at nominal conditions; the
                // core sits out this chip interval.
                counters::CounterBank bank(profiling_cc);
                uarch::SimResult prof;
                {
                    OBS_SPAN("control/profile");
                    prof = profileBackend_.run(*profilers[c],
                                               traces[c], &bank);
                }
                bank.finalise(prof.events);
                const auto m = power::computeMetrics(profiling_cc,
                                                     prof.events);
                RunStats &cs = stats.cores[c];
                cs.seconds += m.seconds;
                cs.joules += m.joules;
                cs.instructions += prof.events.committedOps;
                ++cs.intervals;
                ++cs.profilingIntervals;

                // Stage 3 per core.
                target = policies_[c].predictFrom(obs.phaseId, bank);
            } else {
                if (const auto *p =
                        policies_[c].prediction(obs.phaseId))
                    target = *p;
                chip_traces[c] = traces[c];
                any_chip_work = true;
            }

            if (target != current[c]) {
                const ReconfigCostModel cost_model(current_cc[c]);
                const Cycles penalty =
                    cost_model.transitionCycles(current[c], target);
                RunStats &cs = stats.cores[c];
                cs.reconfigCycles += penalty;
                cs.seconds +=
                    double(penalty) * current_cc[c].clockPeriodSec;
                ++cs.reconfigurations;
                OBS_ONLY(
                    OBS_COUNTER("control/reconfigurations").add(1);)
                just_reconfigured[c] = true;

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
            const auto m = chip.metricsFor(c, res.cores[c]);
            RunStats &cs = stats.cores[c];
            const double joules_before = cs.joules;
            cs.seconds += m.seconds;
            cs.joules += m.joules;
            cs.instructions += res.cores[c].events.committedOps;
            ++cs.intervals;
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

ChipRunStats
runStaticChip(const std::vector<const workload::Workload *> &workloads,
              const space::Configuration &config,
              const uarch::ChipConfig &chip_geometry,
              std::uint64_t max_instructions,
              std::uint64_t interval_length,
              workload::TraceCache *trace_cache,
              const sim::PerfModel *backend)
{
    const std::size_t n = workloads.size();
    if (n == 0)
        fatal("runStaticChip: need at least one workload");
    const sim::PerfModel &model = sim::resolvePerfModel(backend);

    uarch::ChipConfig chip_cfg = chip_geometry;
    chip_cfg.coreConfigs.assign(n, config);

    std::vector<std::unique_ptr<workload::WrongPathGenerator>>
        wrong_paths;
    std::vector<workload::WrongPathGenerator *> wpp;
    wrong_paths.reserve(n);
    wpp.reserve(n);
    for (const auto *wl : workloads) {
        if (!wl)
            fatal("runStaticChip: null workload");
        wrong_paths.push_back(
            std::make_unique<workload::WrongPathGenerator>(
                wl->averageParams(), wl->seed() ^ 0x57a71cULL));
        wpp.push_back(wrong_paths.back().get());
    }
    SimulatedChip chip(model, chip_cfg, wpp);

    ChipRunStats stats;
    stats.cores.resize(n);
    stats.interference.resize(n);

    const std::uint64_t num_intervals =
        max_instructions / interval_length;
    IntervalTraces fetcher(workloads, interval_length, trace_cache);
    for (std::uint64_t i = 0; i < num_intervals; ++i) {
        const auto res = chip.run(fetcher.fetch(i));
        stats.interference = interferenceOf(res);
        for (std::size_t c = 0; c < n; ++c) {
            const auto m = chip.metricsFor(c, res.cores[c]);
            RunStats &cs = stats.cores[c];
            cs.seconds += m.seconds;
            cs.joules += m.joules;
            cs.instructions += res.cores[c].events.committedOps;
            ++cs.intervals;
        }
    }
    return stats;
}

} // namespace adaptsim::control
