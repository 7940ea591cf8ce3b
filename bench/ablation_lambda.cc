/**
 * @file
 * Ablation: sensitivity of the model to the L2 regularisation weight
 * λ (the paper fixes λ = 0.5).  Split-half validation, advanced
 * counters.
 */

#include "sections.hh"

#include <cstdio>

#include "ablation_common.hh"
#include "common/stats.hh"
#include "common/table.hh"

namespace adaptsim::paper
{

void
ablation_lambda(harness::Experiment &exp)
{
    TextTable table;
    table.setHeader({"lambda", "Held-out efficiency (x baseline)"});
    for (double lambda : {0.0, 0.05, 0.5, 5.0, 50.0}) {
        ml::TrainerOptions opt;
        opt.lambda = lambda;
        const double rel = splitHalfRelative(
            exp, counters::FeatureSet::Advanced, opt);
        table.addRow({TextTable::num(lambda),
                      TextTable::num(rel)});
    }
    std::printf("Ablation: regularisation weight (paper uses "
                "lambda = 0.5)\n\n%s\n",
                table.render().c_str());
}

} // namespace adaptsim::paper
