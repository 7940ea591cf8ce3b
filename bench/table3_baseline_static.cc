/**
 * @file
 * Table III: the best overall static configuration (Sec. VI-A) — the
 * sampled configuration with the highest phase-weighted efficiency
 * across all of the suite.  This is the baseline every figure
 * normalises to.  Running this bench performs (and disk-caches) the
 * full Sec. V-C training-data gather.
 */

#include "sections.hh"

#include <cstdio>

#include "common/table.hh"
#include "harness/experiment.hh"

namespace adaptsim::paper
{

void
table3_baseline_static(harness::Experiment &exp)
{
    const auto &baseline = exp.baselineConfig();
    const auto &ds = space::DesignSpace::the();

    TextTable table;
    std::vector<std::string> header;
    std::vector<std::string> ours;
    std::vector<std::string> paper_row;
    const auto paper = harness::paperBaselineConfig();
    for (auto p : space::allParams()) {
        header.push_back(ds.name(p));
        ours.push_back(std::to_string(baseline.value(p)));
        paper_row.push_back(std::to_string(paper.value(p)));
    }
    header.insert(header.begin(), "");
    ours.insert(ours.begin(), "ours");
    paper_row.insert(paper_row.begin(), "paper");
    table.setHeader(header);
    table.addRow(ours);
    table.addRow(paper_row);

    std::printf("Table III: best overall static configuration\n\n%s\n",
                table.render().c_str());

    const double ours_eff =
        harness::meanEfficiencyOf(exp.phases(), baseline);
    const double paper_eff =
        harness::meanEfficiencyOf(exp.phases(), paper);
    std::printf("Weighted geomean efficiency, ours : %.4e\n", ours_eff);
    std::printf("Weighted geomean efficiency, paper: %.4e (%.2fx of "
                "ours)\n",
                paper_eff, paper_eff / ours_eff);
    std::printf("\nCandidates examined: %zu (shared pool incl. the "
                "paper's Table III config)\n",
                exp.sharedPool().size());
}

} // namespace adaptsim::paper
