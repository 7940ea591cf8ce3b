/**
 * @file
 * Tests of the minimal dense matrix.
 */

#include <gtest/gtest.h>

#include "ml/matrix.hh"

using adaptsim::ml::Matrix;

TEST(Matrix, ConstructionAndIndexing)
{
    Matrix m(3, 2, 0.5);
    EXPECT_EQ(m.rows(), 3u);
    EXPECT_EQ(m.cols(), 2u);
    EXPECT_EQ(m.size(), 6u);
    EXPECT_EQ(m(2, 1), 0.5);
    m(1, 0) = -2.0;
    EXPECT_EQ(m(1, 0), -2.0);
    EXPECT_EQ(m.data()[1 * 2 + 0], -2.0);
}

TEST(Matrix, TransposeMultiply)
{
    // A is D(2) × K(3): y = Aᵀx.
    Matrix a(2, 3);
    // Row 0: [1 2 3], Row 1: [4 5 6].
    for (int k = 0; k < 3; ++k) {
        a(0, k) = k + 1;
        a(1, k) = k + 4;
    }
    const double x[2] = {2.0, 10.0};
    double y[3];
    a.transposeMultiply(x, y);
    EXPECT_NEAR(y[0], 2 * 1 + 10 * 4, 1e-12);
    EXPECT_NEAR(y[1], 2 * 2 + 10 * 5, 1e-12);
    EXPECT_NEAR(y[2], 2 * 3 + 10 * 6, 1e-12);
}

TEST(Matrix, TransposeMultiplySkipsZeros)
{
    Matrix a(3, 2, 1.0);
    const double x[3] = {0.0, 0.0, 0.0};
    double y[2] = {99.0, 99.0};
    a.transposeMultiply(x, y);
    EXPECT_EQ(y[0], 0.0);
    EXPECT_EQ(y[1], 0.0);
}
