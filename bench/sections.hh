/**
 * @file
 * The paper's evaluation, one section per table, figure or ablation.
 * Each section prints its result to stdout.  The `paper` driver
 * (bench/paper.cc) runs them over the one Experiment it builds, so
 * every section that gathers reads the same data; sections that need
 * no gathered data ignore it.
 */

#ifndef ADAPTSIM_BENCH_SECTIONS_HH
#define ADAPTSIM_BENCH_SECTIONS_HH

#include "harness/experiment.hh"

namespace adaptsim::paper
{

void table1_design_space(harness::Experiment &exp);
void fig1_optimal_size_over_time(harness::Experiment &exp);
void fig3_lsq_counters(harness::Experiment &exp);
void table3_baseline_static(harness::Experiment &exp);
void fig4_model_vs_static(harness::Experiment &exp);
void fig5_perf_energy_breakdown(harness::Experiment &exp);
void fig6_vs_ideal(harness::Experiment &exp);
void fig7_phase_accuracy(harness::Experiment &exp);
void fig8_parameter_violins(harness::Experiment &exp);
void table4_set_sampling(harness::Experiment &exp);
void fig9_counter_overheads(harness::Experiment &exp);
void table5_reconfig_overheads(harness::Experiment &exp);
void ablation_lambda(harness::Experiment &exp);
void ablation_threshold(harness::Experiment &exp);
void ablation_counters(harness::Experiment &exp);
void ablation_quantisation(harness::Experiment &exp);
void ablation_adaptation_rate(harness::Experiment &exp);

} // namespace adaptsim::paper

#endif // ADAPTSIM_BENCH_SECTIONS_HH
