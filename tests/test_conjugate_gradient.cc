/**
 * @file
 * Tests of the Polak-Ribière conjugate-gradient minimiser.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "ml/conjugate_gradient.hh"

using namespace adaptsim::ml;

namespace
{

/** f and ∇f from one function; counts the calls minimiseCg makes. */
class FnObjective : public Objective
{
  public:
    using Fn = std::function<double(const std::vector<double> &w,
                                    std::vector<double> &grad)>;

    explicit FnObjective(Fn fn) : fn_(std::move(fn)) {}

    double value(const std::vector<double> &w) override
    {
        ++values;
        last_ = w;
        return fn_(w, scratch_);
    }

    void gradient(std::vector<double> &grad) override
    {
        ++gradients;
        fn_(last_, grad);
    }

    std::size_t values = 0;
    std::size_t gradients = 0;

  private:
    Fn fn_;
    std::vector<double> last_, scratch_;
};

} // namespace

TEST(ConjugateGradient, MinimisesConvexQuadratic)
{
    // f(w) = Σ a_i (w_i - c_i)²  with distinct curvatures.
    const std::vector<double> a = {1.0, 10.0, 0.5, 4.0};
    const std::vector<double> c = {2.0, -1.0, 0.0, 5.0};
    FnObjective f([&](const std::vector<double> &w,
                      std::vector<double> &g) {
        g.assign(w.size(), 0.0);
        double val = 0.0;
        for (std::size_t i = 0; i < w.size(); ++i) {
            const double d = w[i] - c[i];
            val += a[i] * d * d;
            g[i] = 2.0 * a[i] * d;
        }
        return val;
    });

    std::vector<double> w(4, 1.0);
    const auto result = minimiseCg(f, w);
    EXPECT_TRUE(result.converged);
    for (std::size_t i = 0; i < w.size(); ++i)
        EXPECT_NEAR(w[i], c[i], 1e-3);
    EXPECT_NEAR(result.objective, 0.0, 1e-6);
}

TEST(ConjugateGradient, HandlesRosenbrockValley)
{
    // Classic non-quadratic test; CG should make major progress.
    FnObjective f([](const std::vector<double> &w,
                     std::vector<double> &g) {
        const double x = w[0], y = w[1];
        g.resize(2);
        g[0] = -2.0 * (1 - x) - 400.0 * x * (y - x * x);
        g[1] = 200.0 * (y - x * x);
        return (1 - x) * (1 - x) +
               100.0 * (y - x * x) * (y - x * x);
    });
    std::vector<double> w = {-1.2, 1.0};
    CgOptions opt;
    opt.maxIterations = 2000;
    const auto result = minimiseCg(f, w, opt);
    EXPECT_LT(result.objective, 1e-2);

    // One gradient per accepted step, and every step needs a value.
    EXPECT_EQ(f.values, result.valueEvals);
    EXPECT_EQ(f.gradients, result.gradientEvals);
    EXPECT_LE(result.gradientEvals, result.iterations + 1);
    EXPECT_GT(result.valueEvals, result.gradientEvals);
}

TEST(ConjugateGradient, StartingAtMinimumConvergesImmediately)
{
    FnObjective f([](const std::vector<double> &w,
                     std::vector<double> &g) {
        g.assign(w.size(), 0.0);
        double val = 0.0;
        for (std::size_t i = 0; i < w.size(); ++i) {
            val += w[i] * w[i];
            g[i] = 2.0 * w[i];
        }
        return val;
    });
    std::vector<double> w(3, 0.0);
    const auto result = minimiseCg(f, w);
    EXPECT_TRUE(result.converged);
    EXPECT_LE(result.iterations, 2u);
}

TEST(ConjugateGradient, RespectsIterationCap)
{
    FnObjective f([](const std::vector<double> &w,
                     std::vector<double> &g) {
        g.resize(1);
        g[0] = 2.0 * (w[0] - 1e9);
        return (w[0] - 1e9) * (w[0] - 1e9);
    });
    std::vector<double> w = {0.0};
    CgOptions opt;
    opt.maxIterations = 3;
    const auto result = minimiseCg(f, w, opt);
    EXPECT_LE(result.iterations, 3u);
}

TEST(ConjugateGradient, DecreasesObjectiveMonotonically)
{
    // Armijo acceptance guarantees descent; verify externally.
    std::vector<double> history;
    FnObjective f([&](const std::vector<double> &w,
                      std::vector<double> &g) {
        g.resize(2);
        const double v = w[0] * w[0] + 3.0 * w[1] * w[1] +
                         w[0] * w[1];
        g[0] = 2.0 * w[0] + w[1];
        g[1] = 6.0 * w[1] + w[0];
        return v;
    });
    std::vector<double> w = {5.0, -3.0};
    double prev = 1e300;
    for (int step = 0; step < 5; ++step) {
        CgOptions opt;
        opt.maxIterations = 1;
        const auto result = minimiseCg(f, w, opt);
        EXPECT_LE(result.objective, prev + 1e-12);
        prev = result.objective;
    }
    EXPECT_LT(prev, 1.0);
}

TEST(ConjugateGradient, GradientOnlyAtTheStartAndAcceptedSteps)
{
    // f(w) = (w - 3)² from 0: the unit step to 6 is rejected, the
    // halved step lands on the minimum, and the next check converges.
    FnObjective f([](const std::vector<double> &w,
                     std::vector<double> &g) {
        g.assign(1, 2.0 * (w[0] - 3.0));
        return (w[0] - 3.0) * (w[0] - 3.0);
    });
    std::vector<double> w = {0.0};
    const auto result = minimiseCg(f, w);
    EXPECT_TRUE(result.converged);
    EXPECT_EQ(w[0], 3.0);
    EXPECT_EQ(result.iterations, 2u);
    EXPECT_EQ(result.valueEvals, 3u);
    EXPECT_EQ(result.gradientEvals, 2u);
    EXPECT_EQ(f.values, result.valueEvals);
    EXPECT_EQ(f.gradients, result.gradientEvals);
}
