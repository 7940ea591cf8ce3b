/**
 * @file
 * Fig. 4: energy efficiency achieved by the model relative to the
 * best overall static configuration, per benchmark, for the basic and
 * advanced counter sets.  Paper: ~2x average with advanced counters,
 * ~1.3x with basic; up to 4x+ for vortex/art/equake and 6.5x for mcf;
 * eon and lucas slightly below 1.
 */

#include "sections.hh"

#include <cstdio>

#include "common/ascii_plot.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "harness/experiment.hh"

namespace adaptsim::paper
{

void
fig4_model_vs_static(harness::Experiment &exp)
{
    const auto &basic =
        exp.modelResults(counters::FeatureSet::Basic);
    const auto &advanced =
        exp.modelResults(counters::FeatureSet::Advanced);

    TextTable table;
    table.setHeader({"Benchmark", "Basic (x)", "Advanced (x)"});
    std::vector<std::string> labels;
    std::vector<std::vector<double>> values;
    std::vector<double> basic_rel, adv_rel;

    for (const auto &[program, idxs] : exp.phasesByProgram()) {
        const double b = exp.relativeEfficiency(
            idxs,
            [&](std::size_t i) { return basic[i].efficiency; });
        const double a = exp.relativeEfficiency(
            idxs,
            [&](std::size_t i) { return advanced[i].efficiency; });
        table.addRow({program, TextTable::num(b),
                      TextTable::num(a)});
        labels.push_back(program);
        values.push_back({a, b});
        basic_rel.push_back(b);
        adv_rel.push_back(a);
    }
    const double mean_basic = geomean(basic_rel);
    const double mean_adv = geomean(adv_rel);
    table.addRow({"AVERAGE", TextTable::num(mean_basic),
                  TextTable::num(mean_adv)});

    std::printf("Fig. 4: model efficiency vs best overall static "
                "configuration\n(baseline: %s)\n\n%s\n",
                exp.baselineConfig().toString().c_str(),
                table.render().c_str());
    std::printf("%s\n",
                groupedBarChart("relative efficiency (x baseline)",
                                {"advanced", "basic"}, labels,
                                values)
                    .c_str());
    std::printf("Average improvement   advanced: %.2fx (paper ~2x)\n"
                "                      basic:    %.2fx (paper ~1.3x)\n",
                mean_adv, mean_basic);
}

} // namespace adaptsim::paper
