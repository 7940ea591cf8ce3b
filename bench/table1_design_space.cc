/**
 * @file
 * Table I: the microarchitectural design space — every parameter, its
 * range, and the total number of design points (~627 billion).
 */

#include "sections.hh"

#include <cstdio>

#include "common/table.hh"
#include "space/design_space.hh"

namespace adaptsim::paper
{

void
table1_design_space(harness::Experiment &)
{
    const auto &ds = space::DesignSpace::the();

    TextTable table;
    table.setHeader({"Parameter", "Values", "Num"});
    for (auto p : space::allParams()) {
        const auto &vals = ds.values(p);
        std::string range;
        if (vals.size() <= 4) {
            for (std::size_t i = 0; i < vals.size(); ++i) {
                if (i)
                    range += ", ";
                range += std::to_string(vals[i]);
            }
        } else {
            bool geometric = true;
            for (std::size_t i = 1; i < vals.size(); ++i)
                geometric = geometric && vals[i] == vals[i - 1] * 2;
            range = std::to_string(vals.front()) + " -> " +
                    std::to_string(vals.back()) +
                    (geometric ? " :2*" :
                         " :" + std::to_string(vals[1] - vals[0]) +
                             "+");
        }
        table.addRow({ds.name(p), range,
                      std::to_string(vals.size())});
    }

    std::printf("Table I: microarchitectural design parameters\n\n%s\n",
                table.render().c_str());
    std::printf("Total design points: %.0f (paper: 627bn)\n",
                ds.totalPoints());
    std::printf("Sum of per-parameter value counts: %zu\n",
                ds.totalValueCount());
}

} // namespace adaptsim::paper
