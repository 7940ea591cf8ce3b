/**
 * @file
 * Tests of the soft-max classifier and its training objective,
 * including a finite-difference gradient check.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "common/rng.hh"
#include "ml/softmax.hh"
#include "space/design_space.hh"

using namespace adaptsim;
using namespace adaptsim::ml;

TEST(Softmax, AllOnesInitPredictsFirstClass)
{
    SoftmaxClassifier clf(4, 3);
    const std::vector<double> x = {0.1, 0.2, 0.3, 1.0};
    // Equal logits → argmax returns the first class.
    EXPECT_EQ(clf.predict(x), 0u);
}

TEST(Softmax, LogitsAreWTransposeX)
{
    SoftmaxClassifier clf(2, 2);
    clf.weights()(0, 0) = 1.0;
    clf.weights()(0, 1) = -1.0;
    clf.weights()(1, 0) = 0.5;
    clf.weights()(1, 1) = 2.0;
    const std::vector<double> x = {2.0, 4.0};
    const auto b = clf.logits(x);
    EXPECT_NEAR(b[0], 2.0 + 2.0, 1e-12);
    EXPECT_NEAR(b[1], -2.0 + 8.0, 1e-12);
    EXPECT_EQ(clf.predict(x), 1u);
}

TEST(Softmax, ProbabilitiesSumToOne)
{
    SoftmaxClassifier clf(3, 5);
    Rng rng(3);
    for (auto &w : clf.weights().data())
        w = rng.nextGaussian();
    const std::vector<double> x = {0.3, -1.0, 2.0};
    const auto p = clf.probabilities(x);
    double sum = 0.0;
    for (double v : p) {
        EXPECT_GE(v, 0.0);
        sum += v;
    }
    EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(Softmax, ProbabilitiesStableForLargeLogits)
{
    SoftmaxClassifier clf(1, 2);
    clf.weights()(0, 0) = 800.0;   // would overflow exp() naively
    clf.weights()(0, 1) = -800.0;
    const std::vector<double> x = {1.0};
    const auto p = clf.probabilities(x);
    EXPECT_NEAR(p[0], 1.0, 1e-9);
    EXPECT_TRUE(std::isfinite(p[1]));
}

namespace
{

/** Six random examples of D features and K classes. */
std::vector<GroupedExample>
randomExamples(std::size_t D, std::size_t K, Rng &rng)
{
    std::vector<GroupedExample> examples;
    for (int n = 0; n < 6; ++n) {
        GroupedExample ex;
        for (std::size_t d = 0; d < D; ++d)
            ex.x.push_back(rng.nextDouble());
        ex.classCount.assign(K, 0.0);
        ex.classCount[rng.nextBounded(K)] = 2.0;
        ex.classCount[rng.nextBounded(K)] += 1.0;
        examples.push_back(std::move(ex));
    }
    return examples;
}

/** Forward differences of @p f at @p w against @p grad. */
void
expectGradientMatchesFiniteDifferences(SoftmaxObjective &f,
                                       const std::vector<double> &w,
                                       const std::vector<double> &grad)
{
    const double f0 = f.value(w);
    EXPECT_TRUE(std::isfinite(f0));
    const double eps = 1e-6;
    for (std::size_t i = 0; i < w.size(); ++i) {
        auto wp = w;
        wp[i] += eps;
        const double numeric = (f.value(wp) - f0) / eps;
        EXPECT_NEAR(grad[i], numeric, 1e-3) << "weight " << i;
    }
}

bool
bitEqual(const std::vector<double> &a, const std::vector<double> &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) ==
               0;
}

} // namespace

TEST(SoftmaxObjective, GradientMatchesFiniteDifferences)
{
    const std::size_t D = 4, K = 3;
    Rng rng(11);
    const auto examples = randomExamples(D, K, rng);

    std::vector<double> w(D * K);
    for (auto &v : w)
        v = rng.nextGaussian() * 0.3;

    SoftmaxObjective f(examples, D, K, 0.5);
    f.value(w);
    std::vector<double> grad;
    f.gradient(grad);
    expectGradientMatchesFiniteDifferences(f, w, grad);
}

TEST(SoftmaxObjective, GradientIsAtTheLastValuePoint)
{
    // The line search calls value() at points it then rejects; the
    // gradient must follow the last point, not the first.
    const std::size_t D = 5, K = 4;
    Rng rng(17);
    const auto examples = randomExamples(D, K, rng);
    std::vector<double> a(D * K), b(D * K);
    for (std::size_t i = 0; i < a.size(); ++i) {
        a[i] = rng.nextGaussian();
        b[i] = rng.nextGaussian() * 0.3;
    }

    SoftmaxObjective f(examples, D, K, 0.5);
    f.value(a);
    f.value(b);
    std::vector<double> grad;
    f.gradient(grad);
    expectGradientMatchesFiniteDifferences(f, b, grad);

    SoftmaxObjective fresh(examples, D, K, 0.5);
    fresh.value(b);
    std::vector<double> fresh_grad;
    fresh.gradient(fresh_grad);
    EXPECT_TRUE(bitEqual(grad, fresh_grad));
}

TEST(SoftmaxObjective, ExplicitZeroFeaturesChangeNoBit)
{
    // Interleave zero features (one of them -0.0) into every example
    // and give their weight rows 0: the value and every gradient
    // element of the original rows must keep their exact bits, and
    // the zero rows' gradients are just the penalty's 2λ·0.
    const std::size_t D = 4, K = 3;
    Rng rng(23);
    const auto dense = randomExamples(D, K, rng);
    const std::vector<std::size_t> at = {0, 2, 3, 5};   // of D + 3
    auto padded = dense;
    for (auto &ex : padded) {
        std::vector<double> x(D + 3, 0.0);
        x[6] = -0.0;
        for (std::size_t d = 0; d < D; ++d)
            x[at[d]] = ex.x[d];
        ex.x = std::move(x);
    }

    std::vector<double> w(D * K), wp((D + 3) * K, 0.0);
    for (std::size_t d = 0; d < D; ++d) {
        for (std::size_t k = 0; k < K; ++k) {
            w[d * K + k] = rng.nextGaussian();
            wp[at[d] * K + k] = w[d * K + k];
        }
    }

    SoftmaxObjective f(dense, D, K, 0.5);
    SoftmaxObjective fp(padded, D + 3, K, 0.5);
    const double v = f.value(w);
    const double vp = fp.value(wp);
    EXPECT_EQ(std::memcmp(&v, &vp, sizeof v), 0) << v << " vs " << vp;

    std::vector<double> g, gp;
    f.gradient(g);
    fp.gradient(gp);
    std::vector<double> g_rows((D + 3) * K, 0.0);
    for (std::size_t d = 0; d < D; ++d) {
        for (std::size_t k = 0; k < K; ++k)
            g_rows[at[d] * K + k] = g[d * K + k];
    }
    EXPECT_TRUE(bitEqual(gp, g_rows));
}

TEST(SoftmaxObjective, RejectsClassCountsOutsideTheKernels)
{
    std::vector<GroupedExample> examples(1);
    examples[0].x = {1.0};
    examples[0].classCount.assign(kMaxClasses + 1, 1.0);
    EXPECT_EXIT(SoftmaxObjective(examples, 1, kMaxClasses + 1, 0.5),
                ::testing::ExitedWithCode(1), "classes");
    for (auto p : space::allParams())
        EXPECT_LE(space::DesignSpace::the().numValues(p), kMaxClasses);
}

TEST(SoftmaxObjective, RegularisationPenalisesLargeWeights)
{
    const std::size_t D = 2, K = 2;
    std::vector<GroupedExample> examples(1);
    examples[0].x = {1.0, 0.0};
    examples[0].classCount = {1.0, 0.0};

    std::vector<double> small(D * K, 0.1), big(D * K, 10.0);
    SoftmaxObjective l0(examples, D, K, 0.0), l5(examples, D, K, 5.0);
    const double f_small_l0 = l0.value(small);
    const double f_small_l5 = l5.value(small);
    const double f_big_l5 = l5.value(big);
    EXPECT_GT(f_small_l5, f_small_l0);
    EXPECT_GT(f_big_l5, f_small_l5);
}

TEST(SoftmaxObjective, PerfectSeparationDrivesNllDown)
{
    // One feature that identifies the class exactly.
    const std::size_t D = 2, K = 2;
    std::vector<GroupedExample> examples(2);
    examples[0].x = {1.0, 0.0};
    examples[0].classCount = {3.0, 0.0};
    examples[1].x = {0.0, 1.0};
    examples[1].classCount = {0.0, 3.0};

    SoftmaxObjective f(examples, D, K, 0.0);
    const std::vector<double> neutral(D * K, 1.0);
    const double f_neutral = f.value(neutral);
    // Aligned weights: feature d votes for class d.
    const std::vector<double> aligned = {5.0, -5.0, -5.0, 5.0};
    const double f_aligned = f.value(aligned);
    EXPECT_LT(f_aligned, f_neutral);
}
