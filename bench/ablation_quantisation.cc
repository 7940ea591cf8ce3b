/**
 * @file
 * Ablation / Sec. VIII model-cost study: quantising the trained model
 * to signed 8-bit weights (the perceptron-style hardware inference).
 * Reports weight storage, per-parameter prediction agreement with
 * the full-precision model, and the efficiency achieved by the
 * quantised predictions on held-out programs.
 */

#include "sections.hh"

#include <cstdio>
#include <set>

#include "ablation_common.hh"
#include "common/table.hh"
#include "ml/quantised.hh"

namespace adaptsim::paper
{

void
ablation_quantisation(harness::Experiment &exp)
{
    const auto &phases = exp.phases();

    // Split-half training (same protocol as the other ablations).
    std::vector<std::string> programs;
    for (const auto &[name, idxs] : exp.phasesByProgram())
        programs.push_back(name);
    std::set<std::string> train_set;
    for (std::size_t i = 0; i < programs.size(); i += 2)
        train_set.insert(programs[i]);

    std::vector<ml::PhaseData> train;
    std::vector<std::vector<double>> heldout_features;
    for (const auto &g : phases) {
        auto d = g.toPhaseData(counters::FeatureSet::Advanced);
        if (train_set.count(g.phase.workload))
            train.push_back(std::move(d));
        else
            heldout_features.push_back(d.features);
    }
    const auto model = ml::trainModel(train, {});
    const ml::QuantisedModel quantised(model);

    std::printf("Sec. VIII model implementation study\n\n");
    std::printf("full-precision weights: %zu doubles (%zu bytes)\n",
                model.totalWeights(),
                model.totalWeights() * sizeof(double));
    std::printf("quantised storage: %zu bytes of int8 (paper "
                "estimates ~2KB at its feature dimensionality)\n",
                quantised.storageBytes());
    std::printf("per-parameter prediction agreement on held-out "
                "phases: %.1f%%\n\n",
                quantised.agreement(model, heldout_features) * 100);

    // Efficiency comparison on held-out programs.
    auto rel_of = [&](auto &&predict) {
        std::vector<double> per_program;
        for (const auto &[name, idxs] : exp.phasesByProgram()) {
            if (train_set.count(name))
                continue;
            per_program.push_back(exp.relativeEfficiency(
                idxs, [&](std::size_t i) {
                    const auto cfg = predict(
                        phases[i]
                            .toPhaseData(
                                counters::FeatureSet::Advanced)
                            .features);
                    return exp.repository()
                        .evaluate(phases[i].spec, cfg)
                        .efficiency;
                }));
        }
        return geomean(per_program);
    };

    const double full_rel =
        rel_of([&](const std::vector<double> &x) {
            return model.predict(x);
        });
    const double quant_rel =
        rel_of([&](const std::vector<double> &x) {
            return quantised.predict(x);
        });
    exp.repository().flush();

    TextTable table;
    table.setHeader({"Model", "Held-out efficiency (x baseline)"});
    table.addRow({"full precision", TextTable::num(full_rel)});
    table.addRow({"int8 quantised", TextTable::num(quant_rel)});
    std::printf("%s\n", table.render().c_str());
}

} // namespace adaptsim::paper
