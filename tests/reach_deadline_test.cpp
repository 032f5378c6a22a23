// Unit tests for the Detection Deadline Estimator (§3.3).
#include "reach/deadline.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <stdexcept>
#include <vector>

#include "core/config.hpp"

namespace awd::reach {
namespace {

models::DiscreteLti pure_drift() {
  // x_{k+1} = x_k + u_k, u in [-1, 1], no disturbance: the reach interval
  // widens by exactly 1 per step.
  models::DiscreteLti m;
  m.A = linalg::Matrix{{1.0}};
  m.B = linalg::Matrix{{1.0}};
  m.dt = 1.0;
  m.name = "drift";
  return m;
}

TEST(Deadline, ExactStepCountOnDriftSystem) {
  // From x0 = 0 with safe set [-5.5, 5.5], the box leaves S at step 6,
  // so t_d = 5.
  BoxBackend est(pure_drift(), Box::from_bounds(Vec{-1}, Vec{1}), 0.0,
                        Box::from_bounds(Vec{-5.5}, Vec{5.5}), DeadlineConfig{20});
  EXPECT_EQ(est.estimate(Vec{0.0}), 5u);
}

TEST(Deadline, DeadlineShrinksNearTheBoundary) {
  BoxBackend est(pure_drift(), Box::from_bounds(Vec{-1}, Vec{1}), 0.0,
                        Box::from_bounds(Vec{-5.5}, Vec{5.5}), DeadlineConfig{20});
  std::size_t prev = est.estimate(Vec{0.0});
  for (double x = 0.5; x <= 5.0; x += 0.5) {
    const std::size_t d = est.estimate(Vec{x});
    EXPECT_LE(d, prev) << "x=" << x;
    prev = d;
  }
  EXPECT_EQ(est.estimate(Vec{5.0}), 0u);  // next step may already be unsafe
}

TEST(Deadline, CapsAtMaxWindow) {
  // Strongly contracting system never reaches the far-away unsafe set.
  models::DiscreteLti m;
  m.A = linalg::Matrix{{0.1}};
  m.B = linalg::Matrix{{0.01}};
  m.dt = 1.0;
  m.name = "contracting";
  BoxBackend est(m, Box::from_bounds(Vec{-1}, Vec{1}), 0.001,
                        Box::from_bounds(Vec{-100}, Vec{100}), DeadlineConfig{17});
  EXPECT_EQ(est.estimate(Vec{0.0}), 17u);
}

TEST(Deadline, UncertaintyTightensTheDeadline) {
  const Box u = Box::from_bounds(Vec{-1}, Vec{1});
  const Box safe = Box::from_bounds(Vec{-5.5}, Vec{5.5});
  BoxBackend noiseless(pure_drift(), u, 0.0, safe, DeadlineConfig{20});
  BoxBackend noisy(pure_drift(), u, 0.5, safe, DeadlineConfig{20});
  EXPECT_LT(noisy.estimate(Vec{0.0}), noiseless.estimate(Vec{0.0}));
}

TEST(Deadline, InitialRadiusTightensTheDeadline) {
  const Box u = Box::from_bounds(Vec{-1}, Vec{1});
  const Box safe = Box::from_bounds(Vec{-5.5}, Vec{5.5});
  BoxBackend point(pure_drift(), u, 0.0, safe, DeadlineConfig{20, 0.0});
  BoxBackend ball(pure_drift(), u, 0.0, safe, DeadlineConfig{20, 1.0});
  EXPECT_LT(ball.estimate(Vec{0.0}), point.estimate(Vec{0.0}));
}

TEST(Deadline, ConservativelySafePredicate) {
  BoxBackend est(pure_drift(), Box::from_bounds(Vec{-1}, Vec{1}), 0.0,
                        Box::from_bounds(Vec{-5.5}, Vec{5.5}), DeadlineConfig{20});
  const std::size_t td = est.estimate(Vec{0.0});
  EXPECT_TRUE(est.conservatively_safe_at(Vec{0.0}, td));
  EXPECT_FALSE(est.conservatively_safe_at(Vec{0.0}, td + 1));
}

TEST(Deadline, SafeSetDimensionValidated) {
  EXPECT_THROW(BoxBackend(pure_drift(), Box::from_bounds(Vec{-1}, Vec{1}), 0.0,
                                 Box::unbounded(2), DeadlineConfig{10}),
               std::invalid_argument);
}

TEST(Deadline, UnboundedSafeDimensionsNeverConstrain) {
  // Safe set only constrains the pitch angle; the aircraft's other two
  // dimensions can grow arbitrarily without triggering the deadline.
  const core::SimulatorCase scase = core::simulator_case("aircraft_pitch");
  BoxBackend est(scase.model, scase.u_range, scase.eps_reach, scase.safe_set,
                        DeadlineConfig{scase.max_window});
  // At the reference state the system is not conservatively unsafe now.
  EXPECT_GT(est.estimate(scase.reference), 0u);
  // Near the pitch boundary the deadline must be nearly exhausted.
  Vec near = scase.reference;
  near[2] = 2.45;
  EXPECT_LT(est.estimate(near), 4u);
}

TEST(Deadline, CheckedMatchesThrowingPathOnGoodInput) {
  BoxBackend est(pure_drift(), Box::from_bounds(Vec{-1}, Vec{1}), 0.0,
                        Box::from_bounds(Vec{-5.5}, Vec{5.5}), DeadlineConfig{20});
  for (double x : {0.0, 1.0, 3.0, 5.0}) {
    const auto checked = est.estimate_checked(Vec{x});
    ASSERT_TRUE(checked.is_ok()) << x;
    EXPECT_EQ(checked.value(), est.estimate(Vec{x})) << x;
  }
}

TEST(Deadline, CheckedRejectsBadSeeds) {
  BoxBackend est(pure_drift(), Box::from_bounds(Vec{-1}, Vec{1}), 0.0,
                        Box::from_bounds(Vec{-5.5}, Vec{5.5}), DeadlineConfig{20});
  const auto wrong_dim = est.estimate_checked(Vec{0.0, 1.0});
  EXPECT_FALSE(wrong_dim.is_ok());
  EXPECT_EQ(wrong_dim.status().code(), core::StatusCode::kInvalidInput);
  const auto nan_seed =
      est.estimate_checked(Vec{std::numeric_limits<double>::quiet_NaN()});
  EXPECT_FALSE(nan_seed.is_ok());
  EXPECT_EQ(nan_seed.status().code(), core::StatusCode::kInvalidInput);
}

TEST(Deadline, BudgetExhaustionYieldsInsteadOfOverstating) {
  // From x0 = 0 the drift system's deadline is 5.  A budget of 3 reach-box
  // queries cannot resolve it, so the checked search must yield rather than
  // answer max_window.
  BoxBackend est(pure_drift(), Box::from_bounds(Vec{-1}, Vec{1}), 0.0,
                        Box::from_bounds(Vec{-5.5}, Vec{5.5}),
                        DeadlineConfig{20, 0.0, 3});
  const auto starved = est.estimate_checked(Vec{0.0});
  EXPECT_FALSE(starved.is_ok());
  EXPECT_EQ(starved.status().code(), core::StatusCode::kBudgetExceeded);
  // A boundary the budget *can* resolve still answers normally.
  const auto resolved = est.estimate_checked(Vec{4.0});  // t_d = 1 < budget
  ASSERT_TRUE(resolved.is_ok());
  EXPECT_EQ(resolved.value(), 1u);
  // The throwing path is budget-free by contract.
  EXPECT_EQ(est.estimate(Vec{0.0}), 5u);
}

TEST(Deadline, NegativeInitRadiusRejectedAtConstruction) {
  EXPECT_THROW(BoxBackend(pure_drift(), Box::from_bounds(Vec{-1}, Vec{1}), 0.0,
                                 Box::from_bounds(Vec{-5.5}, Vec{5.5}),
                                 DeadlineConfig{20, -1.0}),
               std::invalid_argument);
}

// The cached walk (precomputed x0-independent terms) must agree with the
// uncached reach-box recursion bit-for-bit: same terms, same operation
// order.  Probe all four low-dimensional model-bank plants plus the
// 12-state quadrotor with 200 seeded random states each.
TEST(Deadline, CachedMatchesUncachedAcrossPlants) {
  const char* keys[] = {"aircraft_pitch", "vehicle_turning", "series_rlc", "dc_motor",
                        "quadrotor"};
  for (const char* key : keys) {
    const core::SimulatorCase scase = core::simulator_case(key);
    BoxBackend est(scase.model, scase.u_range,
                          scase.eps_reach == 0.0 ? scase.eps : scase.eps_reach,
                          scase.safe_set, DeadlineConfig{scase.max_window});
    const std::size_t n = scase.model.state_dim();
    std::uint64_t rng = 0x9e3779b97f4a7c15ULL;
    auto next_unit = [&rng]() {  // xorshift into [-1, 1)
      rng ^= rng << 13;
      rng ^= rng >> 7;
      rng ^= rng << 17;
      return static_cast<double>(static_cast<std::int64_t>(rng >> 11)) / (1ULL << 52) - 1.0;
    };
    for (int s = 0; s < 200; ++s) {
      // Random seed states around the reference, scaled so the sample set
      // crosses the safe boundary for some draws (deadline varies).
      Vec x0 = scase.reference;
      for (std::size_t i = 0; i < n; ++i) x0[i] += 3.0 * next_unit();
      ASSERT_EQ(est.estimate(x0), est.estimate_uncached(x0))
          << key << " seed " << s;
    }
  }
}

TEST(Deadline, CachedRespectsInitRadiusTerm) {
  const core::SimulatorCase scase = core::simulator_case("aircraft_pitch");
  BoxBackend est(scase.model, scase.u_range, scase.eps, scase.safe_set,
                        DeadlineConfig{scase.max_window, 0.15});
  Vec x0 = scase.reference;
  for (double pitch : {0.0, 0.5, 1.0, 1.5, 2.0, 2.4}) {
    x0[2] = pitch;
    EXPECT_EQ(est.estimate(x0), est.estimate_uncached(x0)) << pitch;
  }
}

// Property: the deadline is monotone in the safe-set size.
TEST(Deadline, MonotoneInSafeSet) {
  const Box u = Box::from_bounds(Vec{-1}, Vec{1});
  std::size_t prev = 0;
  for (double half : {2.0, 4.0, 8.0, 16.0}) {
    BoxBackend est(pure_drift(), u, 0.1,
                          Box::from_bounds(Vec{-half}, Vec{half}), DeadlineConfig{50});
    const std::size_t d = est.estimate(Vec{0.0});
    EXPECT_GE(d, prev);
    prev = d;
  }
}

// --- the support walk behind the cached estimate -------------------------
// (suite named KernelSupportWalk from when the walk was a linalg kernel)

// Reference walk written straight from SupportTable's containment formula
// on its row-major layout.
std::size_t reference_walk(const SupportTable& table, const double* x0, std::size_t cap,
                           bool& resolved) {
  for (std::size_t t = 1; t <= cap; ++t) {
    const SupportTable::Step& st = table.steps[t - 1];
    for (std::size_t k = 0; k < st.count; ++k) {
      const std::size_t c = st.off + k;
      double center = 0.0;
      for (std::size_t j = 0; j < table.dim; ++j) {
        center += table.rows[c * table.dim + j] * x0[j];
      }
      center += table.drift[c];
      if (!(table.lo[c] <= center - table.spread[c] &&
            center + table.spread[c] <= table.hi[c])) {
        resolved = true;
        return t;
      }
    }
  }
  resolved = false;
  return cap;
}

SupportTable random_table(std::mt19937_64& rng, std::size_t dim, std::size_t steps,
                          std::size_t checks_per_step) {
  std::uniform_real_distribution<double> dist(-2.0, 2.0);
  SupportTable table;
  table.dim = dim;
  std::vector<double> row(dim);
  for (std::size_t t = 0; t < steps; ++t) {
    table.begin_step();
    for (std::size_t k = 0; k < checks_per_step; ++k) {
      for (double& r : row) r = dist(rng);
      const double drift = dist(rng);
      const double spread = std::abs(dist(rng)) * 0.1;
      // Bounds wide enough that early steps usually pass, tight enough that
      // some table resolves mid-walk.
      table.add_check(row.data(), drift, spread, -4.0 - static_cast<double>(t),
                      4.0 + static_cast<double>(t));
    }
  }
  return table;
}

std::vector<double> random_point(std::mt19937_64& rng, std::size_t n) {
  std::uniform_real_distribution<double> dist(-10.0, 10.0);
  std::vector<double> v(n);
  for (double& x : v) x = dist(rng);
  return v;
}

TEST(KernelSupportWalk, MatchesReferenceAcrossShapesAndLevels) {
  std::mt19937_64 rng(20260808);
  for (const std::size_t dim : {1, 2, 3, 4, 12}) {
    for (const std::size_t checks : {1, 2, 3, 4, 5, 7}) {
      const SupportTable table = random_table(rng, dim, 20, checks);
      ASSERT_EQ(table.rows.size(), 20 * checks * dim);  // unpadded
      const std::vector<double> x0 = random_point(rng, dim);

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
  const std::vector<double> x0{std::numeric_limits<double>::quiet_NaN(), 1.0};

  // A NaN center is outside every finite box: the very first check fails.
  bool resolved = false;
  EXPECT_EQ(support_walk(table, x0.data(), 10, resolved), 1u);
  EXPECT_TRUE(resolved);

  bool ref_resolved = false;
  EXPECT_EQ(reference_walk(table, x0.data(), 10, ref_resolved), 1u);
  EXPECT_TRUE(ref_resolved);
}

TEST(KernelSupportWalk, EmptyStepAndZeroCap) {
  SupportTable table;
  table.dim = 2;
  // A step with no checks (fully unconstrained safe set) can never fail.
  table.begin_step();
  const std::vector<double> x0{1.0, 2.0};
  bool resolved = true;
  EXPECT_EQ(support_walk(table, x0.data(), 1, resolved), 1u);
  EXPECT_FALSE(resolved);
  resolved = true;
  EXPECT_EQ(support_walk(table, x0.data(), 0, resolved), 0u);
  EXPECT_FALSE(resolved);
}

}  // namespace
}  // namespace awd::reach
