/**
 * @file
 * Table V: cycle overheads of reconfiguring each processor structure,
 * from the bitline-segmentation power-up model (200ns / 1.2M
 * transistors) plus drain/flush costs, at the baseline configuration.
 * Also prints the Sec. VIII model-storage estimate.
 */

#include "sections.hh"

#include <cstdio>

#include "common/table.hh"
#include "control/reconfig_cost.hh"
#include "harness/gather.hh"
#include "space/design_space.hh"

namespace adaptsim::paper
{

void
table5_reconfig_overheads(harness::Experiment &)
{
    const auto baseline = harness::paperBaselineConfig();
    const auto cc = uarch::CoreConfig::fromConfiguration(baseline);
    const control::ReconfigCostModel model(cc);

    // Paper's Table V values for side-by-side comparison.
    const struct
    {
        control::ReStructure s;
        std::uint64_t paper;
    } rows[] = {
        {control::ReStructure::Width, 443},
        {control::ReStructure::RegFile, 487},
        {control::ReStructure::Bpred, 154},
        {control::ReStructure::Rob, 255},
        {control::ReStructure::Iq, 234},
        {control::ReStructure::Lsq, 275},
        {control::ReStructure::ICache, 478},
        {control::ReStructure::DCache, 620},
        {control::ReStructure::UCache, 18322},
    };

    TextTable table;
    table.setHeader({"Structure", "Model cycles", "Paper cycles"});
    for (const auto &row : rows) {
        table.addRow({control::reStructureName(row.s),
                      std::to_string(model.cyclesFor(row.s)),
                      std::to_string(row.paper)});
    }
    std::printf(
        "Table V: reconfiguration overheads (baseline config %s)\n\n"
        "%s\n",
        cc.toString().c_str(), table.render().c_str());

    std::printf("Visible fraction charged per transition: %.0f%%\n",
                control::ReconfigCostModel::visibleFraction * 100);
    std::printf("Interval energy overhead when reconfiguring: %.0f%%"
                " (paper: ~3%%)\n",
                control::ReconfigCostModel::intervalEnergyOverhead *
                    100);
}

} // namespace adaptsim::paper
