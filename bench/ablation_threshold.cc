/**
 * @file
 * Ablation: the "good configuration" labelling threshold.  The paper
 * trains on configurations within 5% of each phase's best (0.95);
 * this sweeps the cut-off.
 */

#include "sections.hh"

#include <cstdio>

#include "ablation_common.hh"
#include "common/table.hh"

namespace adaptsim::paper
{

void
ablation_threshold(harness::Experiment &exp)
{
    TextTable table;
    table.setHeader({"Good threshold",
                     "Held-out efficiency (x baseline)"});
    for (double threshold : {0.995, 0.95, 0.9, 0.8, 0.6}) {
        ml::TrainerOptions opt;
        opt.goodThreshold = threshold;
        const double rel = splitHalfRelative(
            exp, counters::FeatureSet::Advanced, opt);
        table.addRow({TextTable::num(threshold),
                      TextTable::num(rel)});
    }
    std::printf("Ablation: good-set threshold (paper: within 5%% of "
                "best, i.e. 0.95)\n\n%s\n",
                table.render().c_str());
}

} // namespace adaptsim::paper
