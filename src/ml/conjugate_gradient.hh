/**
 * @file
 * Nonlinear conjugate-gradient minimiser (Polak-Ribière+ with an
 * Armijo backtracking line search) used to fit the soft-max weights
 * (Sec. IV-D cites conjugate gradient optimisation per Bishop).
 *
 * The line search needs only f at its trial points, and about half of
 * them are rejected, so the objective splits the value from the
 * gradient: minimiseCg asks for the gradient only at the initial point
 * and at each accepted step.  Every buffer is allocated once per run.
 * Each run adds its totals to the obs counters `ml/cg/runs`,
 * `ml/cg/iterations`, `ml/cg/value_evals`, `ml/cg/gradient_evals`
 * and `ml/cg/converged`.
 */

#ifndef ADAPTSIM_ML_CONJUGATE_GRADIENT_HH
#define ADAPTSIM_ML_CONJUGATE_GRADIENT_HH

#include <cstddef>
#include <vector>

namespace adaptsim::ml
{

/** A differentiable function to minimise. */
class Objective
{
  public:
    virtual ~Objective() = default;

    /** f(w). */
    virtual double value(const std::vector<double> &w) = 0;

    /** ∇f at the point of the last value() call; overwrites
     *  @p grad. */
    virtual void gradient(std::vector<double> &grad) = 0;
};

/** Optimiser knobs; the tolerance and line-search constants are
 *  fixed in conjugate_gradient.cc. */
struct CgOptions
{
    std::size_t maxIterations = 150;
};

/** Result diagnostics. */
struct CgResult
{
    double objective = 0.0;
    std::size_t iterations = 0;
    std::size_t valueEvals = 0;
    std::size_t gradientEvals = 0;
    bool converged = false;
};

/**
 * Minimise @p f starting from @p w (updated in place).
 */
CgResult minimiseCg(Objective &f, std::vector<double> &w,
                    const CgOptions &options = {});

} // namespace adaptsim::ml

#endif // ADAPTSIM_ML_CONJUGATE_GRADIENT_HH
