/**
 * @file
 * Ablation: contribution of each counter group.  Each advanced
 * feature group is zeroed in turn (train and test) and the held-out
 * efficiency drop is reported; the basic set is included as the
 * floor reference (Fig. 4's basic-vs-advanced gap at group
 * granularity).
 */

#include "sections.hh"

#include <cstdio>

#include "ablation_common.hh"
#include "common/table.hh"

namespace adaptsim::paper
{

void
ablation_counters(harness::Experiment &exp)
{
    const double full = splitHalfRelative(
        exp, counters::FeatureSet::Advanced, {});
    const double basic = splitHalfRelative(
        exp, counters::FeatureSet::Basic, {});

    TextTable table;
    table.setHeader({"Dropped group", "Held-out eff (x)",
                     "Delta vs full"});
    table.addRow({"(none: full advanced)", TextTable::num(full),
                  "0.00"});
    table.addRow({"(basic counters only)", TextTable::num(basic),
                  TextTable::num(basic - full)});

    // One representative group per Table II counter family keeps the
    // study affordable; the full group list is available via
    // counters::featureGroups() for a deeper run.
    const std::set<std::string> studied = {
        "alu_usage",       "iq_usage",        "lsq_usage",
        "speculation",     "int_reg_usage",   "rd_port_usage",
        "dc_stack",        "dc_block_reuse",  "dc_red_set_reuse",
        "btb_reuse",       "mispred_rate",    "cpi",
    };
    for (const auto &group : counters::featureGroups(
             counters::FeatureSet::Advanced)) {
        if (!studied.count(group.name))
            continue;
        const auto transform =
            [&group](const std::vector<double> &x) {
                auto y = x;
                for (std::size_t i = group.begin; i < group.end;
                     ++i) {
                    y[i] = 0.0;
                }
                return y;
            };
        const double rel = splitHalfRelative(
            exp, counters::FeatureSet::Advanced, {}, transform);
        table.addRow({group.name, TextTable::num(rel),
                      TextTable::num(rel - full)});
    }

    std::printf("Ablation: advanced counter groups (zeroed one at a "
                "time; more negative delta = more important)\n\n%s\n",
                table.render().c_str());
}

} // namespace adaptsim::paper
