/**
 * @file
 * `paper`: regenerates the paper's evaluation over one Experiment.
 *
 *     paper                 every section, in DESIGN.md §3 order
 *     paper <section>...    only the named sections, in that order
 *
 * Every section reads the Experiment's one gather and its one LOOCV
 * run per counter set, so a table prints the same numbers whatever
 * ran before it.  An unknown section name exits non-zero and lists
 * the sections.
 */

#include <string>
#include <vector>

#include "common/logging.hh"
#include "obs/obs.hh"
#include "sections.hh"

using namespace adaptsim;

namespace
{

struct Section
{
    const char *name;
    void (*run)(harness::Experiment &);
};

/** DESIGN.md §3 order. */
constexpr Section sections[] = {
    {"table1_design_space", paper::table1_design_space},
    {"fig1_optimal_size_over_time", paper::fig1_optimal_size_over_time},
    {"fig3_lsq_counters", paper::fig3_lsq_counters},
    {"table3_baseline_static", paper::table3_baseline_static},
    {"fig4_model_vs_static", paper::fig4_model_vs_static},
    {"fig5_perf_energy_breakdown", paper::fig5_perf_energy_breakdown},
    {"fig6_vs_ideal", paper::fig6_vs_ideal},
    {"fig7_phase_accuracy", paper::fig7_phase_accuracy},
    {"fig8_parameter_violins", paper::fig8_parameter_violins},
    {"table4_set_sampling", paper::table4_set_sampling},
    {"fig9_counter_overheads", paper::fig9_counter_overheads},
    {"table5_reconfig_overheads", paper::table5_reconfig_overheads},
    {"ablation_lambda", paper::ablation_lambda},
    {"ablation_threshold", paper::ablation_threshold},
    {"ablation_counters", paper::ablation_counters},
    {"ablation_quantisation", paper::ablation_quantisation},
    {"ablation_adaptation_rate", paper::ablation_adaptation_rate},
};

const Section *
findSection(const std::string &name)
{
    for (const auto &s : sections) {
        if (name == s.name)
            return &s;
    }
    return nullptr;
}

} // namespace

int
main(int argc, char **argv)
{
    obs::initFromEnv();

    std::vector<const Section *> selected;
    for (int i = 1; i < argc; ++i) {
        const Section *s = findSection(argv[i]);
        if (!s) {
            std::string names;
            for (const auto &known : sections)
                names += std::string("\n  ") + known.name;
            fatal("paper: unknown section '", argv[i],
                  "'; the sections are:", names);
        }
        selected.push_back(s);
    }
    if (selected.empty()) {
        for (const auto &s : sections)
            selected.push_back(&s);
    }

    harness::Experiment exp;
    for (const Section *s : selected)
        s->run(exp);
    return 0;
}
