#include "ml/conjugate_gradient.hh"

#include <algorithm>
#include <cmath>

#include "obs/obs.hh"

namespace adaptsim::ml
{

namespace
{

constexpr double gradTolerance = 1e-5;   ///< stop when ‖g‖∞ < tol
constexpr double initialStep = 1.0;
constexpr double armijoC = 1e-4;
constexpr double backtrackFactor = 0.5;
constexpr std::size_t maxBacktracks = 40;

/** What an iteration tests before its line search. */
struct Probe
{
    double slope = 0.0;      ///< gradᵀdir
    double gradNorm = 0.0;   ///< ‖grad‖∞
};

/** Both reductions of Probe in one pass: each still runs in index
 *  order, the pass only overlaps their latencies.  Not inlined: GCC
 *  would keep the slope sum in the stack slot it spills the result to
 *  across the objective's calls, one store-reload per element. */
[[gnu::noinline]] Probe
probe(const std::vector<double> &grad, const std::vector<double> &dir)
{
    double slope = 0.0, norm = 0.0;
    for (std::size_t i = 0; i < grad.size(); ++i) {
        slope += grad[i] * dir[i];
        norm = std::max(norm, std::abs(grad[i]));
    }
    return {slope, norm};
}

} // namespace

CgResult
minimiseCg(Objective &f, std::vector<double> &w, const CgOptions &opt)
{
    const std::size_t n = w.size();
    std::vector<double> grad(n), prev_grad(n), dir(n), trial(n),
        trial_grad(n);

    CgResult result;
    double fw = f.value(w);
    f.gradient(grad);
    result.valueEvals = 1;
    result.gradientEvals = 1;
    result.objective = fw;

    // Initial direction: steepest descent.
    for (std::size_t i = 0; i < n; ++i)
        dir[i] = -grad[i];
    Probe at = probe(grad, dir);

    double step = initialStep;
    for (std::size_t iter = 0; iter < opt.maxIterations; ++iter) {
        result.iterations = iter + 1;
        if (at.gradNorm < gradTolerance) {
            result.converged = true;
            break;
        }

        if (at.slope >= 0.0) {
            // Not a descent direction: restart with steepest descent.
            for (std::size_t i = 0; i < n; ++i)
                dir[i] = -grad[i];
            at = probe(grad, dir);
            if (at.slope >= 0.0) {
                result.converged = true;   // gradient numerically 0
                break;
            }
        }

        // Armijo backtracking line search on values alone.
        double t = step;
        double f_trial = 0.0;
        bool accepted = false;
        for (std::size_t bt = 0; bt < maxBacktracks; ++bt) {
            for (std::size_t i = 0; i < n; ++i)
                trial[i] = w[i] + t * dir[i];
            f_trial = f.value(trial);
            ++result.valueEvals;
            if (f_trial <= fw + armijoC * t * at.slope) {
                accepted = true;
                break;
            }
            t *= backtrackFactor;
        }
        if (!accepted)
            break;   // no further progress possible

        // Accept the step: trial was the last value() point.
        f.gradient(trial_grad);
        ++result.gradientEvals;
        w.swap(trial);
        prev_grad.swap(grad);
        grad.swap(trial_grad);
        fw = f_trial;
        result.objective = fw;

        // Polak-Ribière+ with automatic restart; num and den share a
        // pass the way Probe's sums do.
        double num = 0.0, den = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            num += grad[i] * (grad[i] - prev_grad[i]);
            den += prev_grad[i] * prev_grad[i];
        }
        const double beta =
            den > 0.0 ? std::max(0.0, num / den) : 0.0;
        for (std::size_t i = 0; i < n; ++i)
            dir[i] = -grad[i] + beta * dir[i];
        at = probe(grad, dir);

        // Grow the next initial step when the search succeeded at the
        // first attempt; shrink when it had to backtrack hard.
        step = std::clamp(t * 2.0, 1e-6, 4.0);
    }

    OBS_COUNTER("ml/cg/runs").add(1);
    OBS_COUNTER("ml/cg/iterations").add(result.iterations);
    OBS_COUNTER("ml/cg/value_evals").add(result.valueEvals);
    OBS_COUNTER("ml/cg/gradient_evals").add(result.gradientEvals);
    OBS_COUNTER("ml/cg/converged").add(result.converged);
    return result;
}

} // namespace adaptsim::ml
