/**
 * @file
 * Fig. 5: performance and energy breakdown of the advanced-counter
 * model vs the best overall static configuration.  Paper: +15%
 * performance, −21% energy on average (e.g. crafty −48% energy at
 * equal performance; art −15% energy at 2x performance).
 */

#include "sections.hh"

#include <cmath>
#include <cstdio>

#include "common/ascii_plot.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "harness/experiment.hh"

namespace adaptsim::paper
{

void
fig5_perf_energy_breakdown(harness::Experiment &exp)
{
    const auto &advanced =
        exp.modelResults(counters::FeatureSet::Advanced);
    auto &repo = exp.repository();
    const auto &baseline = exp.baselineConfig();

    TextTable table;
    table.setHeader({"Benchmark", "Perf (x)", "Energy (x)"});
    std::vector<double> perf_all, energy_all;
    std::vector<std::string> labels;
    std::vector<std::vector<double>> values;

    for (const auto &[program, idxs] : exp.phasesByProgram()) {
        double log_perf = 0.0, log_energy = 0.0, wsum = 0.0;
        for (std::size_t i : idxs) {
            const auto &phase = exp.phases()[i];
            const auto base =
                repo.evaluate(phase.spec, baseline);
            const auto pred =
                repo.evaluate(phase.spec, advanced[i].config);
            const double base_ips =
                base.instructions / base.seconds;
            const double pred_ips =
                pred.instructions / pred.seconds;
            if (base_ips <= 0 || pred_ips <= 0 ||
                base.joules <= 0 || pred.joules <= 0) {
                continue;
            }
            const double w =
                phase.phase.weight > 0 ? phase.phase.weight : 1.0;
            log_perf += w * std::log(pred_ips / base_ips);
            log_energy += w * std::log(pred.joules / base.joules);
            wsum += w;
        }
        const double perf = std::exp(log_perf / wsum);
        const double energy = std::exp(log_energy / wsum);
        table.addRow({program, TextTable::num(perf),
                      TextTable::num(energy)});
        perf_all.push_back(perf);
        energy_all.push_back(energy);
        labels.push_back(program);
        values.push_back({perf, energy});
    }
    const double mean_perf = geomean(perf_all);
    const double mean_energy = geomean(energy_all);
    table.addRow({"AVERAGE", TextTable::num(mean_perf),
                  TextTable::num(mean_energy)});

    std::printf("Fig. 5: performance and energy vs best static "
                "(advanced counters)\n\n%s\n",
                table.render().c_str());
    std::printf("%s\n",
                groupedBarChart("perf / energy (x baseline)",
                                {"perf", "energy"}, labels, values)
                    .c_str());
    std::printf("Average: performance %+.0f%% (paper +15%%), energy "
                "%+.0f%% (paper -21%%)\n",
                (mean_perf - 1.0) * 100, (mean_energy - 1.0) * 100);
}

} // namespace adaptsim::paper
