#include "control/chip_controller.hh"

#include <cmath>

#include "common/logging.hh"
#include "control/reconfig_cost.hh"
#include "obs/obs.hh"
#include "power/metrics.hh"

namespace adaptsim::control
{

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
      backend_(options.backend ? *options.backend
                               : sim::defaultPerfModel()),
      profileBackend_(backend_.supportsObservers()
                          ? backend_
                          : sim::perfModel("cycle"))
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
    const auto chip = backend_.makeChipSession(opt_.chip, wpp);

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

    std::vector<workload::TracePtr> trace_hold(n);
    std::vector<std::vector<isa::MicroOp>> trace_local(n);
    std::vector<workload::Workload::Cursor> cursors(n);
    for (std::uint64_t i = 0; i < num_intervals; ++i) {
        std::vector<std::span<const isa::MicroOp>> traces(n);
        std::vector<std::span<const isa::MicroOp>> chip_traces(n);
        std::vector<bool> just_reconfigured(n, false);
        bool any_chip_work = false;

        for (std::size_t c = 0; c < n; ++c) {
            const auto &wl = *workloads_[c];
            if (opt_.traceCache) {
                trace_hold[c] =
                    opt_.traceCache->get(wl, i * interval, interval);
                traces[c] = *trace_hold[c];
            } else {
                trace_local[c] =
                    wl.generate(i * interval, interval, cursors[c]);
                traces[c] = trace_local[c];
            }

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
                // Reconfiguration flush: the chip session rebuilds
                // the core's private state cold.
                chip->reconfigureCore(c, target);
            }
        }

        if (!any_chip_work)
            continue;

        const auto res = chip->run(chip_traces);
        for (std::size_t c = 0; c < n; ++c) {
            if (chip_traces[c].empty())
                continue;
            const auto m = chip->metricsFor(c, res.cores[c]);
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

    for (std::size_t c = 0; c < n; ++c)
        stats.interference[c] = chip->interference(c);
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
    const sim::PerfModel &model =
        backend ? *backend : sim::defaultPerfModel();

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
    const auto chip = model.makeChipSession(chip_cfg, wpp);

    ChipRunStats stats;
    stats.cores.resize(n);
    stats.interference.resize(n);

    const std::uint64_t num_intervals =
        max_instructions / interval_length;
    std::vector<workload::TracePtr> trace_hold(n);
    std::vector<std::vector<isa::MicroOp>> trace_local(n);
    std::vector<workload::Workload::Cursor> cursors(n);
    for (std::uint64_t i = 0; i < num_intervals; ++i) {
        std::vector<std::span<const isa::MicroOp>> traces(n);
        for (std::size_t c = 0; c < n; ++c) {
            const auto &wl = *workloads[c];
            if (trace_cache) {
                trace_hold[c] = trace_cache->get(
                    wl, i * interval_length, interval_length);
                traces[c] = *trace_hold[c];
            } else {
                trace_local[c] = wl.generate(
                    i * interval_length, interval_length, cursors[c]);
                traces[c] = trace_local[c];
            }
        }
        const auto res = chip->run(traces);
        for (std::size_t c = 0; c < n; ++c) {
            const auto m = chip->metricsFor(c, res.cores[c]);
            RunStats &cs = stats.cores[c];
            cs.seconds += m.seconds;
            cs.joules += m.joules;
            cs.instructions += res.cores[c].events.committedOps;
            ++cs.intervals;
        }
    }

    for (std::size_t c = 0; c < n; ++c)
        stats.interference[c] = chip->interference(c);
    return stats;
}

} // namespace adaptsim::control
