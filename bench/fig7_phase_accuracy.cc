/**
 * @file
 * Fig. 7: phase-level accuracy of the predictive model.
 * (a) distribution + right-accumulated ECDF of per-phase efficiency
 *     relative to the baseline (paper: better than baseline on 80%
 *     of phases; ≥2x on ~33%);
 * (b) the same relative to each phase's best sampled configuration
 *     (paper: ≥74% of the best on half the phases; ~9% of phases
 *     beat the sampled best).
 */

#include "sections.hh"

#include <algorithm>
#include <cstdio>
#include <vector>

#include "common/ascii_plot.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "harness/experiment.hh"

namespace adaptsim::paper
{

namespace
{

void
printDistribution(const char *title,
                  const std::vector<double> &ratios,
                  const std::vector<double> &bin_edges)
{
    TextTable table;
    table.setHeader({"Bin (>=)", "Phases %", "ECDF % (>= bin)"});
    for (std::size_t i = 0; i < bin_edges.size(); ++i) {
        const double lo = bin_edges[i];
        const double hi = i + 1 < bin_edges.size() ?
            bin_edges[i + 1] : 1e300;
        std::size_t in_bin = 0;
        for (double r : ratios) {
            if (r >= lo && r < hi)
                ++in_bin;
        }
        table.addRow(
            {TextTable::num(lo),
             TextTable::num(100.0 * double(in_bin) /
                            double(ratios.size()), 1),
             TextTable::num(100.0 * ecdfFromRight(ratios, lo), 1)});
    }
    std::printf("%s\n%s\n", title, table.render().c_str());
}

} // namespace

void
fig7_phase_accuracy(harness::Experiment &exp)
{
    const auto &advanced =
        exp.modelResults(counters::FeatureSet::Advanced);

    std::vector<double> vs_baseline;
    std::vector<double> vs_best;
    for (std::size_t i = 0; i < exp.phases().size(); ++i) {
        const double base = exp.baselineEfficiency(i);
        const double best =
            harness::bestDynamic(exp.phases()[i]).efficiency;
        const double eff = advanced[i].efficiency;
        if (base > 0.0)
            vs_baseline.push_back(eff / base);
        if (best > 0.0)
            vs_best.push_back(eff / best);
    }

    std::printf("Fig. 7: per-phase accuracy over %zu phases\n\n",
                vs_baseline.size());

    printDistribution(
        "(a) efficiency relative to the baseline",
        vs_baseline,
        {0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 8.0, 16.0, 32.0});
    std::printf(
        "better than baseline: %.0f%% of phases (paper ~80%%)\n"
        "at least 2x baseline: %.0f%% of phases (paper ~33%%)\n"
        "max improvement: %.1fx (paper up to 32x)\n\n",
        100.0 * ecdfFromRight(vs_baseline, 1.0),
        100.0 * ecdfFromRight(vs_baseline, 2.0),
        *std::max_element(vs_baseline.begin(), vs_baseline.end()));

    printDistribution(
        "(b) efficiency relative to the best sampled configuration",
        vs_best, {0.0, 0.25, 0.5, 0.74, 0.9, 1.0, 1.1});
    std::printf(
        "phases at >= 74%% of the best: %.0f%% (paper ~50%%)\n"
        "phases beating the sampled best: %.0f%% (paper ~9%%)\n"
        "median fraction of best achieved: %.2f\n",
        100.0 * ecdfFromRight(vs_best, 0.74),
        100.0 * ecdfFromRight(vs_best, 1.0 + 1e-12),
        median(vs_best));
}

} // namespace adaptsim::paper
