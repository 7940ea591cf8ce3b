/**
 * @file
 * Fig. 8: distribution of the highest achievable efficiency across
 * the 260 phases when one parameter is pinned to each of its values
 * and everything else is free (within the sampled space), normalised
 * per phase by the overall sampled best.  Shown for Width, IQ size
 * and I-cache size, with the percentage of phases for which each
 * value is optimal.
 */

#include "sections.hh"

#include <cstdio>
#include <vector>

#include "common/ascii_plot.hh"
#include "harness/experiment.hh"

namespace adaptsim::paper
{

namespace
{

void
violinFor(harness::Experiment &exp, space::Param p)
{
    const auto &ds = space::DesignSpace::the();
    const auto &phases = exp.phases();
    const std::size_t num_vals = ds.numValues(p);

    // Per value: distribution over phases of (best with value fixed)
    // / (overall best); and % of phases where the value is optimal.
    std::vector<std::vector<double>> dist(num_vals);
    std::vector<std::size_t> wins(num_vals, 0);

    for (const auto &phase : phases) {
        std::vector<double> best_at(num_vals, 0.0);
        double best_all = 0.0;
        for (const auto &e : phase.evals) {
            const std::size_t v = e.config.index(p);
            best_at[v] = std::max(best_at[v], e.efficiency);
            best_all = std::max(best_all, e.efficiency);
        }
        if (best_all <= 0.0)
            continue;
        std::size_t winner = 0;
        for (std::size_t v = 0; v < num_vals; ++v) {
            if (best_at[v] > 0.0)
                dist[v].push_back(best_at[v] / best_all);
            if (best_at[v] > best_at[winner])
                winner = v;
        }
        ++wins[winner];
    }

    std::printf("Parameter: %s (fraction of per-phase optimum when "
                "pinned; %% = phases where the value is best)\n",
                ds.name(p).c_str());
    for (std::size_t v = 0; v < num_vals; ++v) {
        const double pct = 100.0 * double(wins[v]) /
                           double(phases.size());
        char label[64];
        std::snprintf(label, sizeof(label), "%8llu (%4.1f%%)",
                      static_cast<unsigned long long>(
                          ds.value(p, v)),
                      pct);
        std::printf("%s", violinLine(label, dist[v]).c_str());
    }
    std::printf("\n");
}

} // namespace

void
fig8_parameter_violins(harness::Experiment &exp)
{
    exp.phases();

    std::printf("Fig. 8: efficiency distributions with one parameter "
                "fixed (sampled space)\n\n");
    violinFor(exp, space::Param::Width);
    violinFor(exp, space::Param::IqSize);
    violinFor(exp, space::Param::ICacheSize);

    std::printf("Paper observations to compare: no single value is "
                "best for all phases; width 4 best for ~32%% of "
                "phases; small I-cache best for ~28%% with the "
                "highest median but also the worst tail.\n");
}

} // namespace adaptsim::paper
