// lu.hpp — LU decomposition with partial pivoting.
//
// Used for solving dense linear systems (Padé denominator in expm) and for
// matrix inversion where a model needs it.
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/matrix.hpp"
#include "linalg/vec.hpp"

namespace awd::linalg {

/// LU factorization PA = LU with partial (row) pivoting.
///
/// Construction factors the matrix once; solve()/inverse() then reuse the
/// factors.  A numerically singular matrix (zero pivot within tolerance)
/// makes `singular()` true; calling solve() on a singular factorization
/// throws std::domain_error.
class Lu {
 public:
  /// Factor a square matrix.  Throws std::invalid_argument if not square.
  explicit Lu(const Matrix& a);

  [[nodiscard]] bool singular() const noexcept { return singular_; }

  /// Determinant of the original matrix (0 if singular).
  [[nodiscard]] double determinant() const noexcept { return det_; }

  /// Solve A x = b.  Throws std::domain_error if the matrix is singular,
  /// std::invalid_argument on dimension mismatch.
  [[nodiscard]] Vec solve(const Vec& b) const;

  /// Solve A X = B column by column.
  [[nodiscard]] Matrix solve(const Matrix& b) const;

  /// A^{-1}.  Throws std::domain_error if singular.
  [[nodiscard]] Matrix inverse() const;

 private:
  std::size_t n_ = 0;
  Matrix lu_;                 // packed L (unit diagonal, below) and U (on/above)
  std::vector<std::size_t> perm_;  // row permutation: row i of PA is row perm_[i] of A
  bool singular_ = false;
  double det_ = 0.0;
};

/// Convenience: solve A x = b with a one-shot factorization.
[[nodiscard]] Vec solve(const Matrix& a, const Vec& b);

/// Convenience: A^{-1} with a one-shot factorization.
[[nodiscard]] Matrix inverse(const Matrix& a);

}  // namespace awd::linalg
