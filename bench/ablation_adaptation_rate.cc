/**
 * @file
 * Future-work study (paper Sec. X): if each structure could
 * reconfigure at its own frequency, which would need to change often?
 *
 * From the gathered per-phase data we compute, for every parameter:
 * how often its per-phase best value changes between consecutive
 * phases of the same program (the demanded adaptation rate), and how
 * much efficiency a structure-pinned design loses (the cost of NOT
 * adapting it, from the Fig. 8 machinery).
 */

#include "sections.hh"

#include <algorithm>
#include <cstdio>
#include <vector>

#include "common/stats.hh"
#include "common/table.hh"
#include "harness/experiment.hh"

namespace adaptsim::paper
{

void
ablation_adaptation_rate(harness::Experiment &exp)
{
    const auto &phases = exp.phases();
    const auto &ds = space::DesignSpace::the();

    TextTable table;
    table.setHeader({"Parameter", "Change rate",
                     "Median pinned-best eff", "Worst phase eff"});

    for (auto p : space::allParams()) {
        // Per-phase best value index for this parameter.
        std::vector<int> best_val(phases.size(), -1);
        for (std::size_t i = 0; i < phases.size(); ++i) {
            double best = -1.0;
            for (const auto &e : phases[i].evals) {
                if (e.efficiency > best) {
                    best = e.efficiency;
                    best_val[i] = int(e.config.index(p));
                }
            }
        }

        // Change rate between consecutive phases of one program.
        std::size_t transitions = 0, changes = 0;
        for (const auto &[name, idxs] : exp.phasesByProgram()) {
            for (std::size_t k = 1; k < idxs.size(); ++k) {
                ++transitions;
                changes += best_val[idxs[k]] !=
                           best_val[idxs[k - 1]];
            }
        }

        // Cost of pinning: for each phase, the best achievable with
        // the parameter fixed to its single most-popular value,
        // normalised by the phase's overall best.
        std::vector<std::size_t> votes(ds.numValues(p), 0);
        for (int v : best_val) {
            if (v >= 0)
                ++votes[std::size_t(v)];
        }
        const std::size_t pinned = static_cast<std::size_t>(
            std::max_element(votes.begin(), votes.end()) -
            votes.begin());

        std::vector<double> pinned_rel;
        for (const auto &phase : phases) {
            double best_all = 0.0, best_pinned = 0.0;
            for (const auto &e : phase.evals) {
                best_all = std::max(best_all, e.efficiency);
                if (e.config.index(p) == pinned)
                    best_pinned =
                        std::max(best_pinned, e.efficiency);
            }
            if (best_all > 0.0 && best_pinned > 0.0)
                pinned_rel.push_back(best_pinned / best_all);
        }

        const double rate = transitions ?
            double(changes) / double(transitions) : 0.0;
        const double med = median(pinned_rel);
        const double worst = pinned_rel.empty() ? 0.0 :
            *std::min_element(pinned_rel.begin(),
                              pinned_rel.end());
        table.addRow({ds.name(p), TextTable::num(rate),
                      TextTable::num(med),
                      TextTable::num(worst)});
    }

    std::printf(
        "Future-work study: per-structure adaptation demand\n"
        "(change rate = fraction of consecutive-phase transitions "
        "whose best value differs;\n pinned-best = best achievable "
        "with the parameter fixed to its most popular value,\n as a "
        "fraction of the per-phase optimum)\n\n%s\n",
        table.render().c_str());
    std::printf(
        "Structures with high change rates and low pinned "
        "efficiency need fast reconfiguration; ones with low rates "
        "could be adapted rarely — the per-resource frequency the "
        "paper's Sec. X anticipates.\n");
}

} // namespace adaptsim::paper
