// Unit tests for linalg::Matrix.
#include "linalg/matrix.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

namespace awd::linalg {
namespace {

TEST(Matrix, ZeroConstruction) {
  const Matrix m(2, 3);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m(1, 2), 0.0);
  EXPECT_FALSE(m.is_square());
}

TEST(Matrix, InitializerList) {
  const Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_EQ(m(0, 1), 2.0);
  EXPECT_EQ(m(1, 0), 3.0);
  EXPECT_TRUE(m.is_square());
}

TEST(Matrix, RaggedInitializerThrows) {
  EXPECT_THROW((Matrix{{1.0, 2.0}, {3.0}}), std::invalid_argument);
}

TEST(Matrix, Identity) {
  const Matrix i = Matrix::identity(3);
  EXPECT_EQ(i(0, 0), 1.0);
  EXPECT_EQ(i(0, 1), 0.0);
  EXPECT_EQ(i(2, 2), 1.0);
}

TEST(Matrix, Diagonal) {
  const Matrix d = Matrix::diagonal(Vec{2.0, 3.0});
  EXPECT_EQ(d(0, 0), 2.0);
  EXPECT_EQ(d(1, 1), 3.0);
  EXPECT_EQ(d(0, 1), 0.0);
}

TEST(Matrix, MatrixProduct) {
  const Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  const Matrix b{{5.0, 6.0}, {7.0, 8.0}};
  const Matrix c = a * b;
  EXPECT_EQ(c(0, 0), 19.0);
  EXPECT_EQ(c(0, 1), 22.0);
  EXPECT_EQ(c(1, 0), 43.0);
  EXPECT_EQ(c(1, 1), 50.0);
}

TEST(Matrix, ProductShapeMismatchThrows) {
  const Matrix a(2, 3);
  const Matrix b(2, 3);
  EXPECT_THROW((void)(a * b), std::invalid_argument);
}

TEST(Matrix, MatVec) {
  const Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  const Vec v{1.0, 1.0};
  const Vec r = a * v;
  EXPECT_EQ(r[0], 3.0);
  EXPECT_EQ(r[1], 7.0);
}

TEST(Matrix, Transpose) {
  const Matrix a{{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
  const Matrix t = a.transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_EQ(t(2, 1), 6.0);
}

TEST(Matrix, TransposeTimesMatchesTransposedProduct) {
  const Matrix a{{1.0, -2.0}, {3.0, 0.5}};
  const Vec v{2.0, -1.0};
  const Vec direct = a.transposed() * v;
  const Vec fused = a.transpose_times(v);
  EXPECT_DOUBLE_EQ(direct[0], fused[0]);
  EXPECT_DOUBLE_EQ(direct[1], fused[1]);
}

TEST(Matrix, IntegerPower) {
  const Matrix a{{1.0, 1.0}, {0.0, 1.0}};
  const Matrix a3 = a.pow(3);
  EXPECT_EQ(a3(0, 1), 3.0);
  const Matrix a0 = a.pow(0);
  EXPECT_EQ(a0(0, 0), 1.0);
  EXPECT_EQ(a0(0, 1), 0.0);
}

TEST(Matrix, PowNonSquareThrows) {
  const Matrix a(2, 3);
  EXPECT_THROW((void)a.pow(2), std::invalid_argument);
}

TEST(Matrix, RowAndColExtraction) {
  const Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_EQ(a.row_vec(1)[0], 3.0);
  EXPECT_EQ(a.col_vec(1)[0], 2.0);
  EXPECT_THROW((void)a.row_vec(2), std::out_of_range);
}

TEST(Matrix, Norms) {
  const Matrix a{{1.0, -2.0}, {-3.0, 4.0}};
  EXPECT_DOUBLE_EQ(a.norm1(), 6.0);  // max column abs sum: |−2|+|4| = 6
  EXPECT_DOUBLE_EQ(a.max_abs(), 4.0);
  EXPECT_DOUBLE_EQ(a.norm_frobenius() * a.norm_frobenius(), 30.0);
}

TEST(Matrix, Trace) {
  const Matrix a{{1.0, 9.0}, {9.0, 2.0}};
  EXPECT_DOUBLE_EQ(a.trace(), 3.0);
  EXPECT_THROW((void)Matrix(2, 3).trace(), std::invalid_argument);
}

TEST(Matrix, ScalarArithmetic) {
  Matrix a{{2.0, 4.0}};
  a *= 0.5;
  EXPECT_EQ(a(0, 1), 2.0);
  EXPECT_THROW(a /= 0.0, std::invalid_argument);
  const Matrix b = -a;
  EXPECT_EQ(b(0, 0), -1.0);
}

TEST(Matrix, AdditionShapeChecked) {
  Matrix a(2, 2);
  const Matrix b(2, 3);
  EXPECT_THROW(a += b, std::invalid_argument);
}

TEST(Matrix, RowAndColFactories) {
  const Matrix r = Matrix::row(Vec{1.0, 2.0});
  EXPECT_EQ(r.rows(), 1u);
  EXPECT_EQ(r.cols(), 2u);
  const Matrix c = Matrix::col(Vec{1.0, 2.0});
  EXPECT_EQ(c.rows(), 2u);
  EXPECT_EQ(c.cols(), 1u);
}

// mul_into is the one matrix-vector product: the plant, the Data Logger
// and the simulator's records all predict x̃ = A x̄ + B u through it.  The
// committed pins depend on its sum order: each row is summed in ascending
// column order from +0.0.  Summed in descending order, both rows below
// would swap their results.
TEST(Matrix, MulIntoSumsEachRowInAscendingColumnOrder) {
  const Matrix a{{1.0, 1e16, -1e16}, {-1e16, 1e16, 1.0}};
  Vec out;
  a.mul_into(Vec{1.0, 1.0, 1.0}, out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], 0.0);  // (1 + 1e16) rounds to 1e16, then - 1e16
  EXPECT_EQ(out[1], 1.0);  // (-1e16 + 1e16) + 1
}

TEST(Matrix, MulIntoPropagatesNonFiniteAndDenormalEntries) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double denorm = std::numeric_limits<double>::denorm_min();
  Matrix a(5, 3);
  a(0, 0) = std::numeric_limits<double>::quiet_NaN();
  a(1, 1) = kInf;
  a(2, 2) = -kInf;
  a(3, 0) = 1.0;
  a(4, 2) = denorm;
  const Vec x{1.0, -2.0, 0.5};
  Vec out(5, 7.0);  // stale contents must be overwritten
  a.mul_into(x, out);
  EXPECT_TRUE(std::isnan(out[0]));
  EXPECT_EQ(out[1], -kInf);  // Inf * -2.0
  EXPECT_EQ(out[2], -kInf);  // -Inf * 0.5
  EXPECT_EQ(out[3], 1.0);
  // denorm_min * 0.5 rounds to +0.0 under round-to-nearest-even; with
  // x[2] = 1 the denormal survives the sum unchanged.
  EXPECT_EQ(out[4], 0.0);
  a.mul_into(Vec{0.0, 0.0, 1.0}, out);
  EXPECT_EQ(out[4], denorm);
  EXPECT_TRUE(std::isnan(out[1]));  // Inf * 0.0
}

TEST(Matrix, MulIntoZeroColumnsGivesEmptySums) {
  // A plant with no inputs has a B with zero columns: every row of B u is
  // the empty sum +0.0, whatever the output held before.
  const Matrix b(3, 0);
  Vec out(3, 99.0);
  b.mul_into(Vec{}, out);
  ASSERT_EQ(out.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(out[i], 0.0);
    EXPECT_FALSE(std::signbit(out[i]));
  }
}

TEST(Matrix, MulIntoEmptyMatrix) {
  const Matrix empty(0, 0);
  Vec out(2, 1.0);
  empty.mul_into(Vec{}, out);
  EXPECT_TRUE(out.empty());
  EXPECT_THROW(empty.mul_into(Vec{1.0}, out), std::invalid_argument);
}

}  // namespace
}  // namespace awd::linalg
