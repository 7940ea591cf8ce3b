/**
 * @file
 * The per-parameter soft-max model of Sec. IV.
 *
 * P(y = s_k | x) = exp(w_kᵀx) / Σ_j exp(w_jᵀx)          (eq. 3)
 *
 * Prediction avoids the exponentiation entirely: y* = argmax_k (Wᵀx)_k
 * (eq. 8-9).  Training maximises the regularised data log-likelihood
 * (eq. 5-7); note the paper's eq. 6 prints "+ λ tr(WᵀW)" on a
 * maximised objective — we implement the evidently intended penalty
 * (subtract), i.e. standard L2-regularised multinomial logistic
 * regression.
 *
 * SoftmaxObjective is the training kernel: the objective and its
 * gradient as two calls (the line search mostly needs only the
 * value), over sparse examples, with the inner loops fixed at
 * compile time to each parameter's class count.  It is bit-identical
 * to the plain dense loop it replaced; DESIGN.md §10 has the layout
 * and the measured cost.
 */

#ifndef ADAPTSIM_ML_SOFTMAX_HH
#define ADAPTSIM_ML_SOFTMAX_HH

#include <span>
#include <vector>

#include "ml/conjugate_gradient.hh"
#include "ml/matrix.hh"

namespace adaptsim::ml
{

/**
 * One grouped training example: a phase's counter vector together
 * with the per-class counts of its good configurations.  Grouping by
 * phase is an exact reformulation of the per-sample likelihood (all
 * good configs of a phase share the same x) and makes training ~20x
 * cheaper.
 */
struct GroupedExample
{
    std::vector<double> x;            ///< D features
    std::vector<double> classCount;   ///< K counts (≥ 0, sum > 0)
};

/** Multinomial logistic-regression classifier with argmax inference. */
class SoftmaxClassifier
{
  public:
    SoftmaxClassifier() = default;

    /**
     * @param dim feature dimension D.
     * @param num_classes number of values K the parameter can take.
     */
    SoftmaxClassifier(std::size_t dim, std::size_t num_classes);

    /** Hard prediction: argmax_k of the logits (eq. 8-9). */
    std::size_t predict(std::span<const double> x) const;

    /** Logits b = Wᵀx. */
    std::vector<double> logits(std::span<const double> x) const;

    /** Full posterior P(y = s_k | x) (eq. 3). */
    std::vector<double>
    probabilities( // lint:allow(unused-api) planned decision log
        std::span<const double> x) const;

    std::size_t dim() const { return weights_.rows(); }
    std::size_t numClasses() const { return weights_.cols(); }

    Matrix &weights() { return weights_; }
    const Matrix &weights() const { return weights_; }

  private:
    Matrix weights_;   ///< D × K
};

/** Largest class count the training kernel is instantiated for: the
 *  ROB-size parameter's 17 values, the most of any parameter. */
inline constexpr std::size_t kMaxClasses = 17;

/**
 * Regularised negative log-likelihood over grouped examples,
 *
 *   f(W) = -Σ_g Σ_k c_{gk} log σ_k(x_g, W) + λ tr(WᵀW),
 *
 * split into value() and gradient() so a line search pays only for
 * the value at trial points it rejects.
 *
 * Construction stores the nonzero (index, value) feature pairs once,
 * both example-major (for the logits) and feature-major (for the
 * gradient), so the kernels never test a zero counter.  The kernels
 * are instantiated per class count K in [2, kMaxClasses], handle the
 * classes in pairs, and are picked once here.  Each logit, each
 * gradient element and the penalty add their terms in the order of
 * the plain loop over examples and then ascending d that skips zero
 * features, so the result is bit-identical to that loop.
 */
class SoftmaxObjective final : public Objective
{
  public:
    /**
     * @param examples training examples, each x of length @p dim and
     *        classCount of length @p num_classes.
     * @param num_classes K, in [2, kMaxClasses].
     */
    SoftmaxObjective(const std::vector<GroupedExample> &examples,
                     std::size_t dim, std::size_t num_classes,
                     double lambda);

    /** f(w) for flat D×K weights (row-major, as Matrix::data()).
     *  Caches the residuals n_g·p_k − c_{gk} at @p w. */
    double value(const std::vector<double> &w) override;

    /** ∇f at the point of the last value() call; overwrites
     *  @p grad. */
    void gradient(std::vector<double> &grad) override;

  private:
    /** Two classes' worth of one weight row, logit or residual.  Each
     *  lane's arithmetic is the scalar IEEE operation, so handling
     *  classes in pairs keeps every sum's order and bits. */
    using Lanes = double __attribute__((vector_size(16)));

    /** The value and gradient kernels of one class count. */
    struct Kernels
    {
        double (SoftmaxObjective::*value)(const double *w);
        void (SoftmaxObjective::*gradient)(double *grad) const;
    };

    /** The K-class kernels, K in [2, kMaxClasses]. */
    static Kernels kernelsFor(std::size_t num_classes);

    /** f at @p w (flat D×K, already copied to wLanes_); fills
     *  residual_. */
    template <std::size_t K> double valueFor(const double *w);

    /** Writes Σ_g residual_g ⊗ x_g + 2λW to @p grad (D×K). */
    template <std::size_t K> void gradientFor(double *grad) const;

    std::size_t dim_;
    std::size_t numClasses_;
    std::size_t pairs_;   ///< ⌈K/2⌉ Lanes per row; an odd K pads with 0
    double lambda_;
    Kernels kernels_;

    /** The nonzero features twice, each list in ascending order.
     *  Example-major (for the logits): example g's are [exStart_[g],
     *  exStart_[g+1]) of exRow_ (d·pairs_, where weight row d starts
     *  in wLanes_) and exValue_ (x_{gd}).  Feature-major (for the
     *  gradient): feature d's are [ftStart_[d], ftStart_[d+1]) of
     *  ftResidual_ (g·pairs_, where example g's residuals start) and
     *  ftValue_. */
    std::vector<std::size_t> exStart_, exRow_;
    std::vector<double> exValue_;
    std::vector<std::size_t> ftStart_, ftResidual_;
    std::vector<double> ftValue_;

    std::vector<double> counts_;   ///< G×K class counts c_{gk}
    std::vector<double> totals_;   ///< G counts n_g = Σ_k c_{gk}

    bool evaluated_ = false;        ///< value() has run
    std::vector<Lanes> wLanes_;     ///< last value() point, D × pairs_
    std::vector<Lanes> residual_;   ///< G × pairs_ at wLanes_
};

} // namespace adaptsim::ml

#endif // ADAPTSIM_ML_SOFTMAX_HH
