/**
 * @file
 * Minimal dense row-major matrix used by the soft-max model.
 */

#ifndef ADAPTSIM_ML_MATRIX_HH
#define ADAPTSIM_ML_MATRIX_HH

#include <cstddef>
#include <vector>

namespace adaptsim::ml
{

/** Dense row-major matrix of doubles. */
class Matrix
{
  public:
    Matrix() = default;

    /** rows × cols matrix filled with @p fill. */
    Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

    double &operator()(std::size_t r, std::size_t c)
    {
        return data_[r * cols_ + c];
    }
    double operator()(std::size_t r, std::size_t c) const
    {
        return data_[r * cols_ + c];
    }

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }
    std::size_t size() const { return data_.size(); }

    /** Flat row-major storage. */
    std::vector<double> &data() { return data_; }
    const std::vector<double> &data() const { return data_; }

    /**
     * y = Aᵀx where A is this (rows=D, cols=K) and x is length D;
     * y has length K.  The soft-max logit computation (eq. 8).
     */
    void transposeMultiply(const double *x, double *y) const;

  private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<double> data_;
};

} // namespace adaptsim::ml

#endif // ADAPTSIM_ML_MATRIX_HH
