/**
 * @file
 * The full Fig. 2 runtime loop: a ChipController on a one-core chip
 * executing a program with online phase detection, profiling-
 * configuration counter gathering, model-driven reconfiguration (with
 * the Table V overheads), compared against running the whole program
 * on the static Table III baseline.
 */

#include <cstdio>

#include "common/table.hh"
#include "control/chip_controller.hh"
#include "harness/gather.hh"
#include "phase/simpoint.hh"
#include "workload/spec_suite.hh"

using namespace adaptsim;

int
main()
{
    constexpr std::uint64_t program_length = 200000;
    constexpr std::uint64_t interval = 5000;
    constexpr std::uint64_t run_length = 120000;

    // Train a quick model on a few donor programs (never including
    // the programs we will control).
    const std::vector<std::string> donors = {"swim", "crafty",
                                             "mcf", "mesa"};
    std::vector<workload::Workload> suite;
    for (const auto &name : donors)
        suite.push_back(
            workload::specBenchmark(name, program_length));
    harness::EvalRepository repo(suite, "data", 0);

    phase::SimPointOptions sp;
    sp.intervalLength = interval;
    sp.maxPhases = 3;
    std::vector<phase::Phase> phases;
    for (const auto &name : donors) {
        const auto ph =
            phase::extractPhases(repo.workload(name), sp);
        phases.insert(phases.end(), ph.begin(), ph.end());
    }
    harness::GatherOptions gather;
    gather.sharedRandomConfigs = 24;
    gather.localNeighbours = 6;
    gather.oneAtATimeSweep = false;
    std::printf("training the controller's model on %zu donor "
                "phases...\n",
                phases.size());
    const auto gathered = harness::gatherTrainingData(
        repo, phases, program_length, 4000, gather);
    std::vector<ml::PhaseData> data;
    for (const auto &g : gathered)
        data.push_back(
            g.toPhaseData(counters::FeatureSet::Advanced));
    const auto model = ml::trainModel(data, {});
    repo.flush();

    // Drive unseen programs adaptively vs the static baseline, each
    // on its own one-core chip.
    const auto chip = uarch::ChipConfig::homogeneous(
        harness::paperBaselineConfig(), 1);
    TextTable table;
    table.setHeader({"Program", "Static eff", "Adaptive eff",
                     "Gain", "Phases", "Reconfigs"});
    for (const char *program : {"gap", "equake", "gzip"}) {
        const auto wl =
            workload::specBenchmark(program, program_length);

        // Both runs walk the same interval sequence, so one shared
        // cache generates every trace once and replays it twice.
        workload::TraceCache trace_cache;
        const auto static_stats =
            control::runStaticChip({&wl},
                                   harness::paperBaselineConfig(),
                                   chip, run_length, interval,
                                   &trace_cache)
                .cores.at(0);

        control::ChipControllerOptions copt;
        copt.intervalLength = interval;
        copt.initialConfig = harness::paperBaselineConfig();
        copt.chip = chip;
        copt.traceCache = &trace_cache;
        control::ChipController controller({&wl}, model, copt);
        const auto adaptive_stats =
            controller.run(run_length).cores.at(0);

        table.addRow(
            {program,
             TextTable::sci(static_stats.efficiency()),
             TextTable::sci(adaptive_stats.efficiency()),
             TextTable::num(adaptive_stats.efficiency() /
                            static_stats.efficiency()) + "x",
             std::to_string(adaptive_stats.phaseChanges),
             std::to_string(adaptive_stats.reconfigurations)});
    }
    std::printf("\nadaptive controller vs static Table III baseline "
                "(unseen programs):\n\n%s\n",
                table.render().c_str());
    std::printf("Reconfiguration overheads (Table V model) and "
                "profiling intervals are charged to the adaptive "
                "runs.\n");
    return 0;
}
