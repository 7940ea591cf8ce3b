#include "ml/matrix.hh"

namespace adaptsim::ml
{

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill)
{
}

void
Matrix::transposeMultiply(const double *x, double *y) const
{
    for (std::size_t k = 0; k < cols_; ++k)
        y[k] = 0.0;
    for (std::size_t d = 0; d < rows_; ++d) {
        const double xd = x[d];
        if (xd == 0.0)
            continue;
        const double *row = &data_[d * cols_];
        for (std::size_t k = 0; k < cols_; ++k)
            y[k] += xd * row[k];
    }
}

} // namespace adaptsim::ml
