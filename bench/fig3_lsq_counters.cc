/**
 * @file
 * Fig. 3: load/store queue counters for phases of mgrid, swim,
 * parser and vortex, and the efficiency achieved when the LSQ size is
 * swept on each phase's best configuration.  Demonstrates the
 * temporal-histogram + speculation counters: for mgrid/swim the best
 * LSQ size tracks observed usage; for parser/vortex mis-speculation
 * makes the usage histogram misleading and the model must learn the
 * correction.
 */

#include "sections.hh"

#include <cstdio>
#include <vector>

#include "common/ascii_plot.hh"
#include "common/table.hh"
#include "counters/counter_bank.hh"
#include "harness/experiment.hh"
#include "space/sampling.hh"
#include "uarch/core.hh"

namespace adaptsim::paper
{

void
fig3_lsq_counters(harness::Experiment &exp)
{
    auto &repo = exp.repository();

    for (const char *program : {"mgrid", "swim", "parser",
                                "vortex"}) {
        // Pick the program's highest-weight phase.
        const auto &idxs = exp.phasesByProgram().at(program);
        std::size_t pick = idxs.front();
        for (std::size_t i : idxs) {
            if (exp.phases()[i].phase.weight >
                exp.phases()[pick].phase.weight) {
                pick = i;
            }
        }
        const auto &phase = exp.phases()[pick];

        // Efficiency when sweeping the LSQ on the phase's best
        // sampled configuration.
        const auto centre =
            harness::bestDynamic(phase).config;
        const auto sweep =
            space::parameterSweep(centre, space::Param::LsqSize);
        const auto evals = repo.evaluateBatch(phase.spec, sweep);
        double best_eff = 0.0;
        for (const auto &e : evals)
            best_eff = std::max(best_eff, e.efficiency);

        std::vector<BarDatum> eff_bars;
        std::uint64_t best_size = 0;
        for (std::size_t i = 0; i < sweep.size(); ++i) {
            const auto size =
                sweep[i].value(space::Param::LsqSize);
            eff_bars.push_back(
                {std::to_string(size),
                 evals[i].efficiency / best_eff});
            if (evals[i].efficiency >= best_eff)
                best_size = size;
        }

        // Profiling-configuration counters for the phase.
        const auto &wl = repo.workload(program);
        workload::WrongPathGenerator wp(
            wl.averageParams(), wl.seed() ^ 0x57a71cULL);
        const auto cc = uarch::CoreConfig::fromConfiguration(
            space::Configuration::profiling());
        uarch::Core core(cc, wp);
        core.warm(wl.generate(
            phase.spec.startInst >= phase.spec.warmLength ?
                phase.spec.startInst - phase.spec.warmLength : 0,
            phase.spec.warmLength));
        counters::CounterBank bank(cc);
        const auto result = core.run(
            wl.generate(phase.spec.startInst,
                        phase.spec.detailLength),
            &bank);
        bank.finalise(result.events);

        std::vector<BarDatum> usage_bars;
        const auto &lsq = bank.lsqUsage();
        const auto fracs = lsq.normalised();
        for (std::size_t b = 0; b < lsq.numBins(); ++b) {
            usage_bars.push_back(
                {std::to_string(lsq.binValue(b)), fracs[b]});
        }

        std::printf("=== %s / phase %zu ===\n", program,
                    phase.phase.index);
        std::printf("%s\n",
                    barChart("relative efficiency vs LSQ size "
                             "(best size = " +
                                 std::to_string(best_size) + ")",
                             eff_bars, 40)
                        .c_str());
        std::printf("%s\n",
                    barChart("LSQ usage histogram (fraction of "
                             "cycles at occupancy)",
                             usage_bars, 40)
                        .c_str());
        std::printf("speculative ops in LSQ: %.0f%%   "
                    "mis-speculated: %.0f%%\n\n",
                    bank.lsqSpecFrac() * 100,
                    bank.lsqMisSpecFrac() * 100);
    }
    repo.flush();
    std::printf("Paper: best sizes mgrid 32, swim 72, parser 16, "
                "vortex 16; parser/vortex show heavy "
                "mis-speculation that makes raw usage misleading.\n");
}

} // namespace adaptsim::paper
