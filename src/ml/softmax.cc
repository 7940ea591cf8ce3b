#include "ml/softmax.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <utility>

#include "common/logging.hh"

namespace adaptsim::ml
{

SoftmaxClassifier::SoftmaxClassifier(std::size_t dim,
                                     std::size_t num_classes)
    : weights_(dim, num_classes, 1.0)   // deterministic all-ones init
{
    if (dim == 0 || num_classes < 2)
        fatal("SoftmaxClassifier needs dim > 0 and ≥ 2 classes");
}

std::vector<double>
SoftmaxClassifier::logits(std::span<const double> x) const
{
    if (x.size() != weights_.rows())
        panic("feature dimension mismatch in SoftmaxClassifier");
    std::vector<double> b(weights_.cols());
    weights_.transposeMultiply(x.data(), b.data());
    return b;
}

std::size_t
SoftmaxClassifier::predict(std::span<const double> x) const
{
    const auto b = logits(x);
    return static_cast<std::size_t>(
        std::max_element(b.begin(), b.end()) - b.begin());
}

std::vector<double>
SoftmaxClassifier::probabilities(std::span<const double> x) const
{
    auto b = logits(x);
    const double m = *std::max_element(b.begin(), b.end());
    double z = 0.0;
    for (double &v : b) {
        v = std::exp(v - m);
        z += v;
    }
    for (double &v : b)
        v /= z;
    return b;
}

SoftmaxObjective::SoftmaxObjective(
    const std::vector<GroupedExample> &examples, std::size_t dim,
    std::size_t num_classes, double lambda)
    : dim_(dim), numClasses_(num_classes),
      pairs_((num_classes + 1) / 2), lambda_(lambda),
      kernels_(kernelsFor(num_classes))
{
    const std::size_t K = num_classes;
    const std::size_t G = examples.size();
    exStart_.reserve(G + 1);
    exStart_.push_back(0);
    ftStart_.assign(dim + 1, 0);
    counts_.reserve(G * K);
    totals_.reserve(G);
    for (const auto &ex : examples) {
        if (ex.x.size() != dim || ex.classCount.size() != K)
            panic("SoftmaxObjective: example shape mismatch");
        for (std::size_t d = 0; d < dim; ++d) {
            if (ex.x[d] == 0.0)
                continue;
            exRow_.push_back(d * pairs_);
            exValue_.push_back(ex.x[d]);
            ++ftStart_[d + 1];
        }
        exStart_.push_back(exRow_.size());
        double total = 0.0;
        for (std::size_t k = 0; k < K; ++k) {
            counts_.push_back(ex.classCount[k]);
            total += ex.classCount[k];
        }
        totals_.push_back(total);
    }

    // Transpose: walking the examples in order keeps each feature's
    // list in ascending g.
    for (std::size_t d = 0; d < dim; ++d)
        ftStart_[d + 1] += ftStart_[d];
    ftResidual_.resize(exRow_.size());
    ftValue_.resize(exRow_.size());
    std::vector<std::size_t> next(ftStart_.begin(), ftStart_.end() - 1);
    for (std::size_t g = 0; g < G; ++g) {
        for (std::size_t j = exStart_[g]; j < exStart_[g + 1]; ++j) {
            const std::size_t at = next[exRow_[j] / pairs_]++;
            ftResidual_[at] = g * pairs_;
            ftValue_[at] = exValue_[j];
        }
    }

    wLanes_.assign(dim * pairs_, Lanes{});
    residual_.assign(G * pairs_, Lanes{});
}

SoftmaxObjective::Kernels
SoftmaxObjective::kernelsFor(std::size_t num_classes)
{
    if (num_classes < 2 || num_classes > kMaxClasses)
        fatal("SoftmaxObjective: ", num_classes,
              " classes is outside [2, ", kMaxClasses, "]");
    static constexpr auto table =
        []<std::size_t... Is>(std::index_sequence<Is...>) {
            return std::array<Kernels, sizeof...(Is)>{
                Kernels{&SoftmaxObjective::valueFor<Is + 2>,
                        &SoftmaxObjective::gradientFor<Is + 2>}...};
        }(std::make_index_sequence<kMaxClasses - 1>{});
    return table[num_classes - 2];
}

template <std::size_t K>
double
SoftmaxObjective::valueFor(const double *w)
{
    constexpr std::size_t P = (K + 1) / 2;
    // The penalty λ tr(WᵀW) (see the file note on the paper's sign)
    // is one chain of dependent adds over w in order.  It advances a
    // term per logit step, so its latency hides under theirs.
    const double *wi = w, *const w_end = w + dim_ * K;
    double reg = 0.0;
    double nll = 0.0;
    for (std::size_t g = 0; g < totals_.size(); ++g) {
        // logits = Wᵀx over the nonzero features, ascending d.
        std::array<Lanes, P> acc{};
        for (std::size_t j = exStart_[g]; j < exStart_[g + 1]; ++j) {
            const Lanes xd = {exValue_[j], exValue_[j]};
            const Lanes *row = &wLanes_[exRow_[j]];
            for (std::size_t q = 0; q < P; ++q)
                acc[q] += xd * row[q];
            if (wi != w_end) {
                reg += *wi * *wi;
                ++wi;
            }
        }
        std::array<double, K> logits;
        for (std::size_t k = 0; k < K; ++k)
            logits[k] = acc[k / 2][k % 2];

        // Stable log-sum-exp.
        const double m = *std::max_element(logits.begin(), logits.end());
        std::array<double, K> p;
        double z = 0.0;
        for (std::size_t k = 0; k < K; ++k) {
            p[k] = std::exp(logits[k] - m);
            z += p[k];
        }
        const double log_z = std::log(z) + m;
        const double *c = &counts_[g * K];
        Lanes *r = &residual_[g * P];
        for (std::size_t k = 0; k < K; ++k) {
            p[k] /= z;
            if (c[k] > 0.0)
                nll -= c[k] * (logits[k] - log_z);
            r[k / 2][k % 2] = totals_[g] * p[k] - c[k];
        }
    }
    for (; wi != w_end; ++wi)
        reg += *wi * *wi;
    return nll + lambda_ * reg;
}

template <std::size_t K>
void
SoftmaxObjective::gradientFor(double *grad) const
{
    // Row d of Σ_g (n_g p_k - c_{gk}) x_g, summed over g in order,
    // then the penalty's 2λW (see the file note on the paper's sign).
    constexpr std::size_t P = (K + 1) / 2;
    for (std::size_t d = 0; d < dim_; ++d) {
        std::array<Lanes, P> acc{};
        for (std::size_t j = ftStart_[d]; j < ftStart_[d + 1]; ++j) {
            const Lanes xd = {ftValue_[j], ftValue_[j]};
            const Lanes *r = &residual_[ftResidual_[j]];
            for (std::size_t q = 0; q < P; ++q)
                acc[q] += xd * r[q];
        }
        const Lanes *w = &wLanes_[d * P];
        for (std::size_t k = 0; k < K; ++k) {
            grad[d * K + k] =
                acc[k / 2][k % 2] + 2.0 * lambda_ * w[k / 2][k % 2];
        }
    }
}

double
SoftmaxObjective::value(const std::vector<double> &w)
{
    const std::size_t K = numClasses_;
    if (w.size() != dim_ * K)
        panic("SoftmaxObjective: weight size mismatch");
    evaluated_ = true;
    for (std::size_t d = 0; d < dim_; ++d) {
        for (std::size_t k = 0; k < K; ++k)
            wLanes_[d * pairs_ + k / 2][k % 2] = w[d * K + k];
    }
    return (this->*kernels_.value)(w.data());
}

void
SoftmaxObjective::gradient(std::vector<double> &grad)
{
    if (!evaluated_)
        panic("SoftmaxObjective::gradient before value()");
    grad.resize(dim_ * numClasses_);
    (this->*kernels_.gradient)(grad.data());
}

} // namespace adaptsim::ml
