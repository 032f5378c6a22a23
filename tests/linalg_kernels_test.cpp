// Unit tests for the hot-path kernels (src/linalg/kernels.*).
//
// The kernels must match their documented semantics bit for bit: the
// matvec against Matrix::mul_into, the support walk against a reference
// walk written straight from the containment formula, and the elementwise
// kernels against the plain expression — including NaN/Inf propagation,
// signed zeros, aliasing, padded lanes, and dimensions that do not fill a
// panel group.
#include "linalg/kernels.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

#include "linalg/matrix.hpp"
#include "linalg/vec.hpp"

namespace awd::linalg::kernels {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
const double kNan = std::numeric_limits<double>::quiet_NaN();

bool bits_equal(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  return a.empty() ||
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

std::vector<double> random_values(std::mt19937_64& rng, std::size_t n) {
  std::uniform_real_distribution<double> dist(-10.0, 10.0);
  std::vector<double> v(n);
  for (double& x : v) x = dist(rng);
  return v;
}

Matrix random_matrix(std::mt19937_64& rng, std::size_t rows, std::size_t cols) {
  std::uniform_real_distribution<double> dist(-3.0, 3.0);
  Matrix m(rows, cols);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) m(i, j) = dist(rng);
  }
  return m;
}

// Gemv over every dimension from 1 to 13 covers full panel groups,
// remainders of every phase, and the 1-dim degenerate panel; bit-compared
// against Matrix::mul_into (the semantics the panel is documented to
// replicate).
TEST(KernelGemv, BitIdenticalToScalarAndMulIntoAcrossDims) {
  std::mt19937_64 rng(20260808);
  for (std::size_t n = 1; n <= 13; ++n) {
    for (std::size_t m = 1; m <= 5; ++m) {
      const Matrix a = random_matrix(rng, n, m);
      const std::vector<double> x = random_values(rng, m);
      GemvPanel panel;
      panel.assign(a);
      ASSERT_EQ(panel.rows, n);
      ASSERT_EQ(panel.cols, m);
      ASSERT_EQ(panel.padded % GemvPanel::kPanelPad, 0u);

      std::vector<double> y(n, 7.0);
      gemv(panel, x.data(), y.data());

      Vec ref;
      a.mul_into(Vec(std::vector<double>(x)), ref);
      EXPECT_TRUE(bits_equal(y, ref.raw())) << "n=" << n << " m=" << m;
    }
  }
}

TEST(KernelGemv, EmptyMatrixAndZeroInputDim) {
  GemvPanel panel;
  panel.assign(Matrix(0, 0));
  EXPECT_TRUE(panel.empty());
  gemv(panel, nullptr, nullptr);  // zero loop trips: must not touch memory

  // Zero-column panel: every output row is the empty sum.
  panel.assign(Matrix(3, 0));
  std::vector<double> y(3, 99.0);
  gemv(panel, nullptr, y.data());
  for (double v : y) EXPECT_EQ(v, 0.0);
}

TEST(KernelGemv, NonFiniteRowsPropagateIdentically) {
  Matrix a(5, 3);
  a(0, 0) = kNan;
  a(1, 1) = kInf;
  a(2, 2) = -kInf;
  a(3, 0) = 1.0;
  a(4, 2) = std::numeric_limits<double>::denorm_min();
  const std::vector<double> x{1.0, -2.0, 0.5};
  GemvPanel panel;
  panel.assign(a);

  std::vector<double> y(5);
  gemv(panel, x.data(), y.data());
  EXPECT_TRUE(std::isnan(y[0]));
  EXPECT_EQ(y[1], -kInf);  // Inf * x[1] with x[1] = -2.0
  EXPECT_EQ(y[2], -kInf);  // -Inf * x[2] with x[2] = 0.5

  Vec ref;
  a.mul_into(Vec(std::vector<double>(x)), ref);
  EXPECT_TRUE(bits_equal(y, ref.raw()));
}

TEST(KernelElementwise, AbsDiffMatchesScalarIncludingNonFinite) {
  std::mt19937_64 rng(7);
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                              std::size_t{3}, std::size_t{4}, std::size_t{5},
                              std::size_t{7}, std::size_t{8}, std::size_t{12},
                              std::size_t{13}}) {
    std::vector<double> a = random_values(rng, n);
    std::vector<double> b = random_values(rng, n);
    if (n >= 3) {
      a[0] = kNan;           // NaN - x = NaN, |NaN| = NaN
      b[1] = kInf;           // x - Inf = -Inf, |..| = Inf
      a[2] = b[2];           // exact zero difference
    }
    std::vector<double> out(n, -1.0), expect(n);
    abs_diff(a.data(), b.data(), out.data(), n);
    for (std::size_t i = 0; i < n; ++i) expect[i] = std::abs(a[i] - b[i]);
    EXPECT_TRUE(bits_equal(out, expect)) << "n=" << n;
  }
}

TEST(KernelElementwise, AbsDiffSupportsAliasedOutput) {
  std::mt19937_64 rng(11);
  for (const std::size_t n : {std::size_t{1}, std::size_t{4}, std::size_t{6},
                              std::size_t{9}}) {
    const std::vector<double> a = random_values(rng, n);
    const std::vector<double> b = random_values(rng, n);
    std::vector<double> expect(n);
    abs_diff(a.data(), b.data(), expect.data(), n);

    std::vector<double> alias_a = a;  // out aliases the first operand
    abs_diff(alias_a.data(), b.data(), alias_a.data(), n);
    EXPECT_TRUE(bits_equal(alias_a, expect)) << "n=" << n;

    std::vector<double> alias_b = b;  // out aliases the second operand
    abs_diff(a.data(), alias_b.data(), alias_b.data(), n);
    EXPECT_TRUE(bits_equal(alias_b, expect)) << "n=" << n;
  }
}

TEST(KernelElementwise, AddSubAssignMatchScalarAndSelfAlias) {
  std::mt19937_64 rng(13);
  for (const std::size_t n : {std::size_t{1}, std::size_t{3}, std::size_t{4},
                              std::size_t{5}, std::size_t{11}}) {
    const std::vector<double> base = random_values(rng, n);
    const std::vector<double> delta = random_values(rng, n);

    std::vector<double> sum = base;
    std::vector<double> diff = base;
    add_assign(sum.data(), delta.data(), n);
    sub_assign(diff.data(), delta.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(sum[i], base[i] + delta[i]) << "n=" << n << " i=" << i;
      EXPECT_EQ(diff[i], base[i] - delta[i]) << "n=" << n << " i=" << i;
    }

    // v += v doubles each element; v -= v zeroes each element (x - x is
    // +0.0 for finite x).
    std::vector<double> self = base;
    add_assign(self.data(), self.data(), n);
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(self[i], base[i] + base[i]);
    self = base;
    sub_assign(self.data(), self.data(), n);
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(self[i], 0.0);
  }
}

TEST(KernelThreshold, AnyAbsExceedsMatchesScalarSemantics) {
  // Strictly-greater, NaN never exceeds (ordered compare), Inf always does.
  const std::vector<double> tau{1.0, 2.0, 3.0, 4.0, 5.0};
  EXPECT_FALSE(any_abs_exceeds(std::vector<double>{1.0, -2.0, 3.0, -4.0, 5.0}.data(),
                               tau.data(), 5));  // equality is not exceedance
  EXPECT_TRUE(any_abs_exceeds(std::vector<double>{0.0, 0.0, 0.0, 0.0, -5.5}.data(),
                              tau.data(), 5));  // last element fires
  EXPECT_TRUE(any_abs_exceeds(std::vector<double>{0.0, 2.5, 0.0, 0.0, 0.0}.data(),
                              tau.data(), 5));  // interior element fires
  EXPECT_FALSE(any_abs_exceeds(std::vector<double>{kNan, kNan, kNan, kNan, kNan}.data(),
                               tau.data(), 5));  // NaN is silent
  EXPECT_TRUE(any_abs_exceeds(std::vector<double>{0.0, -kInf, 0.0, 0.0, 0.0}.data(),
                              tau.data(), 5));
  EXPECT_FALSE(any_abs_exceeds(nullptr, nullptr, 0));
}

// Reference reimplementation of the support walk straight from the header's
// containment formula, evaluated on the padded table layout.
std::size_t reference_walk(const SupportTable& table, const double* x0,
                           std::size_t cap, bool& resolved) {
  for (std::size_t t = 1; t <= cap; ++t) {
    const SupportTable::Step& st = table.steps[t - 1];
    for (std::size_t k = 0; k < st.count; ++k) {
      double center = 0.0;
      for (std::size_t j = 0; j < table.dim; ++j) {
        center += table.rows[st.row_off + j * st.padded + k] * x0[j];
      }
      center += table.drift[st.scalar_off + k];
      const double spread = table.spread[st.scalar_off + k];
      if (!(table.lo[st.scalar_off + k] <= center - spread &&
            center + spread <= table.hi[st.scalar_off + k])) {
        resolved = true;
        return t;
      }
    }
  }
  resolved = false;
  return cap;
}

SupportTable random_table(std::mt19937_64& rng, std::size_t dim,
                          std::size_t steps, std::size_t checks_per_step) {
  std::uniform_real_distribution<double> dist(-2.0, 2.0);
  SupportTable table;
  table.dim = dim;
  std::vector<double> rows, drifts, spreads, los, his;
  for (std::size_t t = 0; t < steps; ++t) {
    rows.clear();
    drifts.clear();
    spreads.clear();
    los.clear();
    his.clear();
    for (std::size_t k = 0; k < checks_per_step; ++k) {
      for (std::size_t j = 0; j < dim; ++j) rows.push_back(dist(rng));
      drifts.push_back(dist(rng));
      spreads.push_back(std::abs(dist(rng)) * 0.1);
      // Bounds wide enough that early steps usually pass, tight enough that
      // some table resolves mid-walk.
      los.push_back(-4.0 - static_cast<double>(t));
      his.push_back(4.0 + static_cast<double>(t));
    }
    table.push_step(rows.data(), drifts.data(), spreads.data(), los.data(),
                    his.data(), checks_per_step);
  }
  return table;
}

TEST(KernelSupportWalk, MatchesReferenceAcrossShapesAndLevels) {
  std::mt19937_64 rng(20260808);
  for (const std::size_t dim : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                                std::size_t{4}, std::size_t{12}}) {
    for (const std::size_t checks : {std::size_t{1}, std::size_t{2},
                                     std::size_t{3}, std::size_t{4},
                                     std::size_t{5}, std::size_t{7}}) {
      const SupportTable table = random_table(rng, dim, 20, checks);
      const std::vector<double> x0 = random_values(rng, dim);

      bool ref_resolved = false;
      const std::size_t ref_t = reference_walk(table, x0.data(), 20, ref_resolved);
      bool resolved = false;
      const std::size_t t = support_walk(table, x0.data(), 20, resolved);
      EXPECT_EQ(t, ref_t) << "dim=" << dim << " checks=" << checks;
      EXPECT_EQ(resolved, ref_resolved);
    }
  }
}

TEST(KernelSupportWalk, CapShortOfBoundaryLeavesUnresolved) {
  std::mt19937_64 rng(3);
  const SupportTable table = random_table(rng, 3, 30, 2);
  const std::vector<double> x0{100.0, -100.0, 50.0};  // escapes early
  bool resolved = false;
  const std::size_t full = support_walk(table, x0.data(), 30, resolved);
  ASSERT_TRUE(resolved);
  ASSERT_GE(full, 1u);

  // Capping below the failing step must report resolved=false and the cap.
  bool capped_resolved = true;
  const std::size_t capped = support_walk(table, x0.data(), full - 1, capped_resolved);
  EXPECT_FALSE(capped_resolved);
  EXPECT_EQ(capped, full - 1);
}

TEST(KernelSupportWalk, NanSeedFailsLikeScalarAtEveryLevel) {
  std::mt19937_64 rng(5);
  const SupportTable table = random_table(rng, 2, 10, 3);
  const std::vector<double> x0{kNan, 1.0};

  // A NaN center is outside every finite box: the very first check fails.
  bool resolved = false;
  EXPECT_EQ(support_walk(table, x0.data(), 10, resolved), 1u);
  EXPECT_TRUE(resolved);

  bool ref_resolved = false;
  EXPECT_EQ(reference_walk(table, x0.data(), 10, ref_resolved), 1u);
  EXPECT_TRUE(ref_resolved);
}

TEST(KernelSupportWalk, PaddedLanesNeverResolveTheWalk) {
  // One check per step leaves 3 padded lanes per group; bounds the live
  // check always satisfies.  If a padded lane (drift 0, spread 0, lo -inf,
  // hi +inf) could fail, this would resolve spuriously.
  SupportTable table;
  table.dim = 1;
  const double row = 0.0;  // center stays 0 regardless of x0
  const double drift = 0.0;
  const double spread = 0.5;
  const double lo = -1.0;
  const double hi = 1.0;
  for (int t = 0; t < 8; ++t) {
    table.push_step(&row, &drift, &spread, &lo, &hi, 1);
  }
  const double x0 = 1e300;
  bool resolved = true;
  EXPECT_EQ(support_walk(table, &x0, 8, resolved), 8u);
  EXPECT_FALSE(resolved);
}

TEST(KernelSupportWalk, EmptyStepAndZeroCap) {
  SupportTable table;
  table.dim = 2;
  // A step with zero live checks (fully unconstrained safe set) can never
  // fail.
  table.push_step(nullptr, nullptr, nullptr, nullptr, nullptr, 0);
  const std::vector<double> x0{1.0, 2.0};
  bool resolved = true;
  EXPECT_EQ(support_walk(table, x0.data(), 1, resolved), 1u);
  EXPECT_FALSE(resolved);
  resolved = true;
  EXPECT_EQ(support_walk(table, x0.data(), 0, resolved), 0u);
  EXPECT_FALSE(resolved);
}

TEST(KernelVecIntegration, VecOperatorsRouteThroughKernels) {
  // Vec::operator+=/-=/any_exceeds are kernel-backed; sanity-check the
  // wiring end to end on a dimension that leaves a partial panel group.
  Vec a{1.0, -2.0, 3.0, -4.0, 5.5};
  const Vec b{0.5, 0.5, 0.5, 0.5, 0.5};
  a += b;
  EXPECT_EQ(a, (Vec{1.5, -1.5, 3.5, -3.5, 6.0}));
  a -= b;
  EXPECT_EQ(a, (Vec{1.0, -2.0, 3.0, -4.0, 5.5}));
  EXPECT_TRUE(a.any_exceeds(Vec{5.0, 5.0, 5.0, 5.0, 5.0}));
  EXPECT_FALSE(a.any_exceeds(Vec{6.0, 6.0, 6.0, 6.0, 6.0}));
}

}  // namespace
}  // namespace awd::linalg::kernels
