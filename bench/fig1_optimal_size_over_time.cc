/**
 * @file
 * Fig. 1: how the efficiency-optimal IQ and RF sizes vary over time
 * for gap, applu and apsi at pipeline widths 8 and 4.  For each
 * interval of the program we sweep the parameter (others pinned to
 * the Table III baseline, width overridden) and report the argmax.
 * The program, interval and warm-up lengths follow ADAPTSIM_SCALE.
 */

#include "sections.hh"

#include <cstdio>
#include <vector>

#include "common/ascii_plot.hh"
#include "common/env.hh"
#include "harness/gather.hh"
#include "harness/repository.hh"
#include "space/sampling.hh"
#include "workload/spec_suite.hh"

namespace adaptsim::paper
{

namespace
{

constexpr std::size_t numIntervals = 20;

/** Program, interval and warm-up lengths, scaled by ADAPTSIM_SCALE
 *  as ExperimentOptions scales the experiment's. */
struct Geometry
{
    std::uint64_t programLength;
    std::uint64_t intervalLength;
    std::uint64_t warmLength;
};

Geometry
scaledGeometry()
{
    const double scale = experimentScale();
    const auto scaled = [scale](std::uint64_t length) {
        return static_cast<std::uint64_t>(length * scale);
    };
    return {scaled(400000), scaled(6000), scaled(8000)};
}

/** Optimal value of @p swept at each interval for a pinned width. */
std::vector<double>
optimalOverTime(harness::EvalRepository &repo, const Geometry &geo,
                const std::string &program, int width,
                space::Param swept)
{
    auto centre = harness::paperBaselineConfig();
    centre.setValue(space::Param::Width, width);
    const auto sweep = space::parameterSweep(centre, swept);

    std::vector<double> best_vals;
    const std::uint64_t stride =
        geo.programLength / (numIntervals + 1);
    for (std::size_t i = 0; i < numIntervals; ++i) {
        harness::PhaseSpec spec{program, geo.programLength,
                                (i + 1) * stride, geo.warmLength,
                                geo.intervalLength};
        const auto evals = repo.evaluateBatch(spec, sweep);
        std::size_t best = 0;
        for (std::size_t c = 1; c < evals.size(); ++c) {
            if (evals[c].efficiency > evals[best].efficiency)
                best = c;
        }
        best_vals.push_back(
            double(sweep[best].value(swept)));
    }
    repo.flush();
    return best_vals;
}

} // namespace

void
fig1_optimal_size_over_time(harness::Experiment &exp)
{
    const Geometry geo = scaledGeometry();
    harness::EvalRepository repo(
        workload::specSuite(geo.programLength), exp.options().dataDir,
        exp.options().threads);

    std::vector<double> xs;
    for (std::size_t i = 0; i < numIntervals; ++i)
        xs.push_back(double(i));

    for (const char *program : {"gap", "applu", "apsi"}) {
        for (auto [param, pname] :
             {std::pair{space::Param::IqSize, "IQ size"},
              std::pair{space::Param::RfSize, "RF size"}}) {
            const auto w8 =
                optimalOverTime(repo, geo, program, 8, param);
            const auto w4 =
                optimalOverTime(repo, geo, program, 4, param);
            std::printf("%s\n",
                        linePlot(std::string(program) +
                                     ": optimal " + pname +
                                     " over time",
                                 xs, {"width 8", "width 4"},
                                 {w8, w4})
                            .c_str());
        }
    }
    std::printf(
        "Paper observations: the optimal sizes vary over time, "
        "differ between widths (gap's RF: 113 -> 67 at width 4), "
        "and applu's demand is width-insensitive.\n");
}

} // namespace adaptsim::paper
