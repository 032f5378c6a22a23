// Unit tests for linalg::Vec.
#include "linalg/vec.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <stdexcept>
#include <vector>

namespace awd::linalg {
namespace {

TEST(Vec, DefaultConstructedIsEmpty) {
  const Vec v;
  EXPECT_EQ(v.size(), 0u);
  EXPECT_TRUE(v.empty());
}

TEST(Vec, SizeConstructorZeroFills) {
  const Vec v(4);
  ASSERT_EQ(v.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(v[i], 0.0);
}

TEST(Vec, FillConstructor) {
  const Vec v(3, 2.5);
  EXPECT_EQ(v[0], 2.5);
  EXPECT_EQ(v[2], 2.5);
}

TEST(Vec, InitializerList) {
  const Vec v{1.0, -2.0, 3.0};
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[1], -2.0);
}

TEST(Vec, AdditionAndSubtraction) {
  const Vec a{1.0, 2.0};
  const Vec b{3.0, 5.0};
  const Vec sum = a + b;
  const Vec diff = b - a;
  EXPECT_EQ(sum[0], 4.0);
  EXPECT_EQ(sum[1], 7.0);
  EXPECT_EQ(diff[0], 2.0);
  EXPECT_EQ(diff[1], 3.0);
}

TEST(Vec, MismatchedAdditionThrows) {
  Vec a{1.0, 2.0};
  const Vec b{1.0};
  EXPECT_THROW(a += b, std::invalid_argument);
  EXPECT_THROW((void)a.dot(b), std::invalid_argument);
}

TEST(Vec, ScalarOperations) {
  Vec v{2.0, -4.0};
  v *= 0.5;
  EXPECT_EQ(v[0], 1.0);
  EXPECT_EQ(v[1], -2.0);
  const Vec w = 3.0 * v;
  EXPECT_EQ(w[1], -6.0);
  EXPECT_THROW(v /= 0.0, std::invalid_argument);
}

TEST(Vec, DotProduct) {
  const Vec a{1.0, 2.0, 3.0};
  const Vec b{4.0, -5.0, 6.0};
  EXPECT_DOUBLE_EQ(a.dot(b), 4.0 - 10.0 + 18.0);
}

TEST(Vec, Norms) {
  const Vec v{3.0, -4.0};
  EXPECT_DOUBLE_EQ(v.norm1(), 7.0);
  EXPECT_DOUBLE_EQ(v.norm2(), 5.0);
  EXPECT_DOUBLE_EQ(v.norm_inf(), 4.0);
}

TEST(Vec, CwiseAbs) {
  const Vec v{-1.5, 2.0, 0.0};
  const Vec a = v.cwise_abs();
  EXPECT_EQ(a[0], 1.5);
  EXPECT_EQ(a[1], 2.0);
  EXPECT_EQ(a[2], 0.0);
}

TEST(Vec, CwiseMulAndMax) {
  const Vec a{2.0, -3.0};
  const Vec b{4.0, 5.0};
  EXPECT_EQ(a.cwise_mul(b)[0], 8.0);
  EXPECT_EQ(a.cwise_mul(b)[1], -15.0);
  EXPECT_EQ(a.cwise_max(b)[0], 4.0);
  EXPECT_EQ(a.cwise_max(b)[1], 5.0);
}

TEST(Vec, AnyExceedsIsPerDimension) {
  const Vec z{0.01, 0.5};
  const Vec tau{0.02, 0.6};
  EXPECT_FALSE(z.any_exceeds(tau));
  const Vec z2{0.03, 0.5};
  EXPECT_TRUE(z2.any_exceeds(tau));
}

TEST(Vec, AnyExceedsUsesAbsoluteValue) {
  const Vec z{-0.5};
  const Vec tau{0.3};
  EXPECT_TRUE(z.any_exceeds(tau));
}

TEST(Vec, BasisVector) {
  const Vec e = Vec::basis(3, 1);
  EXPECT_EQ(e[0], 0.0);
  EXPECT_EQ(e[1], 1.0);
  EXPECT_EQ(e[2], 0.0);
  EXPECT_THROW((void)Vec::basis(3, 3), std::invalid_argument);
}

TEST(Vec, EqualityAndNegation) {
  const Vec a{1.0, 2.0};
  EXPECT_TRUE(a == (Vec{1.0, 2.0}));
  const Vec n = -a;
  EXPECT_EQ(n[0], -1.0);
  EXPECT_EQ(n[1], -2.0);
}

TEST(Vec, AtBoundsChecked) {
  Vec v{1.0};
  EXPECT_THROW((void)v.at(1), std::out_of_range);
  EXPECT_EQ(v.at(0), 1.0);
}

// The elementwise arithmetic behind the residual z = |x̃ - x̄|, the
// window-mean sums and the §4.1 threshold test.  These suites are named
// for the kernel functions Vec once called; the loops now live in Vec, and
// the cases pin the same semantics on it bit for bit.

constexpr double kInf = std::numeric_limits<double>::infinity();
const double kNan = std::numeric_limits<double>::quiet_NaN();

bool bits_equal(const Vec& a, const Vec& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

Vec random_vec(std::mt19937_64& rng, std::size_t n) {
  std::uniform_real_distribution<double> dist(-10.0, 10.0);
  Vec v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = dist(rng);
  return v;
}

TEST(KernelElementwise, AbsDiffMatchesScalarIncludingNonFinite) {
  std::mt19937_64 rng(7);
  for (const std::size_t n : {0, 1, 2, 3, 4, 5, 7, 8, 12, 13}) {
    Vec a = random_vec(rng, n);
    Vec b = random_vec(rng, n);
    if (n >= 5) {
      a[0] = kNan;   // NaN - x = NaN, |NaN| = NaN
      b[1] = kInf;   // x - Inf = -Inf, |-Inf| = Inf
      a[2] = b[2];   // exact zero difference: +0.0
      a[3] = -0.0;   // -0.0 - +0.0 = -0.0, |-0.0| = +0.0
      b[3] = 0.0;
      a[4] = -kInf;  // -Inf - -Inf = NaN
      b[4] = -kInf;
    }
    const Vec z = (a - b).cwise_abs();
    Vec expect(n);
    for (std::size_t i = 0; i < n; ++i) expect[i] = std::abs(a[i] - b[i]);
    EXPECT_TRUE(bits_equal(z, expect)) << "n=" << n;
    if (n >= 5) {
      EXPECT_TRUE(std::isnan(z[0]));
      EXPECT_EQ(z[1], kInf);
      EXPECT_FALSE(std::signbit(z[2]));
      EXPECT_FALSE(std::signbit(z[3]));
      EXPECT_TRUE(std::isnan(z[4]));
    }
  }
}

TEST(KernelElementwise, AbsDiffSupportsAliasedOutput) {
  // The difference computed in place over either operand's storage equals
  // the out-of-place one bit for bit.
  std::mt19937_64 rng(11);
  for (const std::size_t n : {1, 4, 6, 9}) {
    const Vec a = random_vec(rng, n);
    const Vec b = random_vec(rng, n);
    Vec expect(n);
    for (std::size_t i = 0; i < n; ++i) expect[i] = std::abs(a[i] - b[i]);

    Vec over_a = a;  // output is the first operand
    over_a -= b;
    EXPECT_TRUE(bits_equal(over_a.cwise_abs(), expect)) << "n=" << n;

    Vec over_b = b;  // output is the second operand: b - a, same magnitude
    over_b -= a;
    EXPECT_TRUE(bits_equal(over_b.cwise_abs(), expect)) << "n=" << n;
  }
}

TEST(KernelElementwise, AddSubAssignMatchScalarAndSelfAlias) {
  std::mt19937_64 rng(13);
  for (const std::size_t n : {1, 3, 4, 5, 11}) {
    const Vec base = random_vec(rng, n);
    const Vec delta = random_vec(rng, n);

    Vec sum = base;
    Vec diff = base;
    sum += delta;
    diff -= delta;
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(sum[i], base[i] + delta[i]) << "n=" << n << " i=" << i;
      EXPECT_EQ(diff[i], base[i] - delta[i]) << "n=" << n << " i=" << i;
    }

    // v += v doubles each element; v -= v zeroes each element (x - x is
    // +0.0 for finite x).
    Vec self = base;
    self += self;
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(self[i], base[i] + base[i]);
    self = base;
    self -= self;
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(self[i], 0.0);
      EXPECT_FALSE(std::signbit(self[i]));
    }
  }
  // Signed zeros: -0.0 + -0.0 keeps its sign, -0.0 + +0.0 does not.
  Vec z{-0.0, -0.0};
  z += Vec{-0.0, 0.0};
  EXPECT_TRUE(std::signbit(z[0]));
  EXPECT_FALSE(std::signbit(z[1]));
}

TEST(KernelThreshold, AnyAbsExceedsMatchesScalarSemantics) {
  // Strictly-greater, NaN never exceeds (ordered compare), Inf always does.
  const Vec tau{1.0, 2.0, 3.0, 4.0, 5.0};
  EXPECT_FALSE((Vec{1.0, -2.0, 3.0, -4.0, 5.0}).any_exceeds(tau));  // equality
  EXPECT_TRUE((Vec{0.0, 0.0, 0.0, 0.0, -5.5}).any_exceeds(tau));    // last fires
  EXPECT_TRUE((Vec{0.0, 2.5, 0.0, 0.0, 0.0}).any_exceeds(tau));     // interior
  EXPECT_FALSE((Vec{kNan, kNan, kNan, kNan, kNan}).any_exceeds(tau));  // silent
  EXPECT_TRUE((Vec{0.0, -kInf, 0.0, 0.0, 0.0}).any_exceeds(tau));
  EXPECT_FALSE((Vec{-0.0, 0.0, -0.0, 0.0, -0.0}).any_exceeds(Vec(5, 0.0)));
  EXPECT_FALSE(Vec{}.any_exceeds(Vec{}));
  // A NaN threshold is never exceeded either.
  EXPECT_FALSE((Vec{1e300}).any_exceeds(Vec{kNan}));
}

TEST(KernelVecIntegration, VecOperatorsRouteThroughKernels) {
  // Vec's elementwise operators end to end.
  Vec a{1.0, -2.0, 3.0, -4.0, 5.5};
  const Vec b{0.5, 0.5, 0.5, 0.5, 0.5};
  a += b;
  EXPECT_EQ(a, (Vec{1.5, -1.5, 3.5, -3.5, 6.0}));
  a -= b;
  EXPECT_EQ(a, (Vec{1.0, -2.0, 3.0, -4.0, 5.5}));
  EXPECT_TRUE(a.any_exceeds(Vec{5.0, 5.0, 5.0, 5.0, 5.0}));
  EXPECT_FALSE(a.any_exceeds(Vec{6.0, 6.0, 6.0, 6.0, 6.0}));
  EXPECT_THROW((void)a.any_exceeds(Vec{1.0}), std::invalid_argument);
}

}  // namespace
}  // namespace awd::linalg
