/**
 * @file
 * Phase explorer: run SimPoint-style phase extraction on a program,
 * show each phase's behaviour signature distances, and demonstrate
 * the online phase-change detector the controller uses (stage 1 of
 * Fig. 2).
 */

#include <cstdio>

#include "common/table.hh"
#include "phase/online_detector.hh"
#include "phase/simpoint.hh"
#include "workload/spec_suite.hh"

using namespace adaptsim;

int
main()
{
    const auto wl = workload::specBenchmark("gap", 400000);
    constexpr std::uint64_t interval = 6000;

    // Offline: SimPoint-style representative phase extraction.
    phase::SimPointOptions options;
    options.intervalLength = interval;
    options.maxPhases = 10;
    const auto phases = phase::extractPhases(wl, options);

    std::printf("SimPoint phases of %s (interval = %llu µops)\n\n",
                wl.name().c_str(),
                static_cast<unsigned long long>(interval));
    TextTable table;
    table.setHeader({"Phase", "Start µop", "Weight"});
    for (const auto &p : phases) {
        table.addRow({std::to_string(p.index),
                      std::to_string(p.startInst),
                      TextTable::num(p.weight)});
    }
    std::printf("%s\n", table.render().c_str());

    // Online: the detector watching the program run.
    phase::OnlinePhaseDetector detector;
    const std::uint64_t num_intervals =
        wl.totalInstructions() / interval;
    std::printf("online detector trace (one char per interval, "
                "letter = phase id, '*' = new phase):\n  ");
    std::size_t changes = 0;
    std::size_t new_phases = 0;
    workload::Workload::Cursor cursor;
    for (std::uint64_t i = 0; i < num_intervals; ++i) {
        const auto bbv = phase::Bbv::ofTrace(
            wl.generate(i * interval, interval, cursor));
        const auto obs = detector.observe(bbv);
        if (obs.newPhase) {
            std::printf("*");
            ++new_phases;
        } else {
            std::printf("%c", char('a' + obs.phaseId % 26));
        }
        if (obs.phaseChanged)
            ++changes;
    }
    std::printf("\n\n%llu intervals, %zu distinct phases, %zu phase "
                "changes (reconfiguration rate %.2f per interval; "
                "the paper observes ~0.1)\n",
                static_cast<unsigned long long>(num_intervals),
                detector.numPhases(), changes,
                double(changes) / double(num_intervals));
    return 0;
}
