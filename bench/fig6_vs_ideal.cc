/**
 * @file
 * Fig. 6: the model against the two reference points of Sec. VII —
 * the best *specialised* static configuration per program (paper:
 * 1.5x average) and the ideal per-phase *best dynamic* configuration
 * (paper: 2.7x average, model achieving 74% of the available
 * improvement).
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
fig6_vs_ideal(harness::Experiment &exp)
{
    const auto &advanced =
        exp.modelResults(counters::FeatureSet::Advanced);

    TextTable table;
    table.setHeader({"Benchmark", "Model (x)", "Spec static (x)",
                     "Best dynamic (x)"});
    std::vector<double> model_all, spec_all, dyn_all;
    std::vector<std::string> labels;
    std::vector<std::vector<double>> values;

    for (const auto &[program, idxs] : exp.phasesByProgram()) {
        // Per-program specialised static from the shared pool.
        std::vector<harness::GatheredPhase> program_phases;
        for (std::size_t i : idxs)
            program_phases.push_back(exp.phases()[i]);
        const auto spec_cfg = harness::bestStaticForProgram(
            program_phases, exp.sharedPool());

        const double model = exp.relativeEfficiency(
            idxs,
            [&](std::size_t i) { return advanced[i].efficiency; });
        const double spec = exp.relativeEfficiency(
            idxs, [&](std::size_t i) {
                return harness::efficiencyOn(exp.phases()[i],
                                             spec_cfg);
            });
        const double dyn = exp.relativeEfficiency(
            idxs, [&](std::size_t i) {
                return harness::bestDynamic(exp.phases()[i])
                    .efficiency;
            });

        table.addRow({program, TextTable::num(model),
                      TextTable::num(spec), TextTable::num(dyn)});
        model_all.push_back(model);
        spec_all.push_back(spec);
        dyn_all.push_back(dyn);
        labels.push_back(program);
        values.push_back({model, spec, dyn});
    }

    const double mean_model = geomean(model_all);
    const double mean_spec = geomean(spec_all);
    const double mean_dyn = geomean(dyn_all);
    table.addRow({"AVERAGE", TextTable::num(mean_model),
                  TextTable::num(mean_spec),
                  TextTable::num(mean_dyn)});

    std::printf("Fig. 6: model vs specialised static vs ideal "
                "dynamic (all x best overall static)\n\n%s\n",
                table.render().c_str());
    std::printf("%s\n",
                groupedBarChart(
                    "relative efficiency (x baseline)",
                    {"model", "spec-static", "best-dyn"}, labels,
                    values)
                    .c_str());

    // Fraction of the available improvement captured by the model
    // (in log space, consistent with the geomean aggregation).
    double captured = 0.0;
    if (mean_dyn > 1.0)
        captured = std::log(mean_model) / std::log(mean_dyn);
    std::printf(
        "Averages: model %.2fx (paper 2x), specialised static %.2fx "
        "(paper 1.5x), best dynamic %.2fx (paper 2.7x)\n"
        "Model captures %.0f%% of the available improvement "
        "(paper 74%%)\n",
        mean_model, mean_spec, mean_dyn, captured * 100);
}

} // namespace adaptsim::paper
