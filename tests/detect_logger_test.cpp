// Unit tests for the Data Logger (§5): buffer / hold / release semantics.
#include "detect/logger.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

namespace awd::detect {
namespace {

models::DiscreteLti scalar_model() {
  models::DiscreteLti m;
  m.A = linalg::Matrix{{2.0}};
  m.B = linalg::Matrix{{1.0}};
  m.dt = 0.1;
  m.name = "scalar";
  return m;
}

TEST(Logger, CapacityIsMaxWindowPlusSeed) {
  DataLogger log(scalar_model(), 5);
  // w_m + 1 points inside a maximal window plus the trusted seed.
  EXPECT_EQ(log.capacity(), 7u);
  EXPECT_EQ(log.max_window(), 5u);
  EXPECT_TRUE(log.empty());
}

TEST(Logger, FirstEntryHasZeroResidual) {
  DataLogger log(scalar_model(), 5);
  const LogEntry& e = log.log(0, Vec{3.0}, Vec{1.0});
  EXPECT_EQ(e.residual[0], 0.0);
  EXPECT_EQ(e.predicted[0], 3.0);
}

TEST(Logger, ResidualUsesPreviousEstimateAndControl) {
  DataLogger log(scalar_model(), 5);
  (void)log.log(0, Vec{3.0}, Vec{1.0});
  const LogEntry& e = log.log(1, Vec{6.5}, Vec{0.0});
  // x̃_1 = 2*3 + 1*1 = 7; z = |7 - 6.5| = 0.5.
  EXPECT_DOUBLE_EQ(e.predicted[0], 7.0);
  EXPECT_DOUBLE_EQ(e.residual[0], 0.5);
}

TEST(Logger, ReleaseDropsOldEntries) {
  DataLogger log(scalar_model(), 3);  // capacity 5
  for (std::size_t t = 0; t < 10; ++t) (void)log.log(t, Vec{0.0}, Vec{0.0});
  EXPECT_EQ(log.size(), 5u);
  EXPECT_EQ(log.earliest(), 5u);
  EXPECT_EQ(log.latest(), 9u);
  EXPECT_FALSE(log.has(4));
  EXPECT_TRUE(log.has(5));
  EXPECT_THROW((void)log.entry(4), std::out_of_range);
}

TEST(Logger, ContiguityEnforced) {
  DataLogger log(scalar_model(), 3);
  (void)log.log(0, Vec{0.0}, Vec{0.0});
  EXPECT_THROW((void)log.log(2, Vec{0.0}, Vec{0.0}), std::invalid_argument);
  EXPECT_THROW((void)log.log(0, Vec{0.0}, Vec{0.0}), std::invalid_argument);
  EXPECT_NO_THROW((void)log.log(1, Vec{0.0}, Vec{0.0}));
}

TEST(Logger, FirstEntryMayStartAnywhere) {
  DataLogger log(scalar_model(), 3);
  EXPECT_NO_THROW((void)log.log(42, Vec{0.0}, Vec{0.0}));
  EXPECT_EQ(log.earliest(), 42u);
}

TEST(Logger, WindowMeanInclusiveWindow) {
  DataLogger log(scalar_model(), 10);
  // Estimates chosen so residuals are 0, 1, 2, 3, ... :
  // x̄_{t} = 2 x̄_{t-1} - t  gives z_t = t (control 0).
  double est = 1.0;
  (void)log.log(0, Vec{est}, Vec{0.0});
  for (std::size_t t = 1; t <= 6; ++t) {
    est = 2.0 * est - static_cast<double>(t);
    (void)log.log(t, Vec{est}, Vec{0.0});
  }
  // Window [4, 6] -> residuals {4, 5, 6}, mean 5.
  EXPECT_DOUBLE_EQ(log.window_mean(6, 2)[0], 5.0);
  // Window size 0 -> just the residual at 6.
  EXPECT_DOUBLE_EQ(log.window_mean(6, 0)[0], 6.0);
}

TEST(Logger, WindowMeanClampsAtStreamStart) {
  DataLogger log(scalar_model(), 10);
  (void)log.log(0, Vec{1.0}, Vec{0.0});
  (void)log.log(1, Vec{2.0}, Vec{0.0});  // residual |2*1 - 2| = 0
  // Window of size 5 at t=1 only has 2 points; mean over what exists.
  EXPECT_NO_THROW((void)log.window_mean(1, 5));
  EXPECT_THROW((void)log.window_mean(7, 2), std::out_of_range);
}

TEST(Logger, TrustedStateIsJustOutsideTheWindow) {
  DataLogger log(scalar_model(), 5);
  for (std::size_t t = 0; t < 7; ++t) {
    (void)log.log(t, Vec{static_cast<double>(t)}, Vec{0.0});
  }
  // At t=6 with window 2, the seed is x̄_{6-2-1} = x̄_3.
  const auto seed = log.trusted_state(6, 2);
  ASSERT_TRUE(seed.has_value());
  EXPECT_DOUBLE_EQ((*seed)[0], 3.0);
  // Too early in the stream: no trusted point yet.
  EXPECT_FALSE(log.trusted_state(1, 2).has_value());
}

TEST(Logger, TrustedStateForMaxWindowIsOldestRetained) {
  DataLogger log(scalar_model(), 5);
  for (std::size_t t = 0; t < 20; ++t) {
    (void)log.log(t, Vec{static_cast<double>(t)}, Vec{0.0});
  }
  // At t=19 with window w_m=5: seed is t-6 = 13, the oldest retained entry.
  const auto seed = log.trusted_state(19, 5);
  ASSERT_TRUE(seed.has_value());
  EXPECT_DOUBLE_EQ((*seed)[0], 13.0);
  EXPECT_EQ(log.earliest(), 13u);
}

TEST(Logger, ResetForgets) {
  DataLogger log(scalar_model(), 3);
  (void)log.log(0, Vec{0.0}, Vec{0.0});
  log.reset();
  EXPECT_TRUE(log.empty());
  EXPECT_THROW((void)log.earliest(), std::logic_error);
  EXPECT_NO_THROW((void)log.log(5, Vec{0.0}, Vec{0.0}));
}

TEST(Logger, WindowMeanStartupUnderflowIsGuarded) {
  // w > t_end must clamp to the stream start, never wrap around.
  DataLogger log(scalar_model(), 10);
  (void)log.log(0, Vec{1.0}, Vec{0.0});
  EXPECT_NO_THROW((void)log.window_mean(0, 10));
  (void)log.log(1, Vec{2.0}, Vec{0.0});
  EXPECT_NO_THROW((void)log.window_mean(1, 10));
  // Maximal window at every early step.
  for (std::size_t t = 2; t < 8; ++t) {
    (void)log.log(t, Vec{0.0}, Vec{0.0});
    EXPECT_NO_THROW((void)log.window_mean(t, 10)) << t;
  }
}

TEST(Logger, TrustedStateStartupUnderflowIsGuarded) {
  // t < w + 1 has no point outside the window yet — must be nullopt for
  // every (t, w) combination near the stream start, not an underflow.
  DataLogger log(scalar_model(), 5);
  (void)log.log(0, Vec{1.0}, Vec{0.0});
  for (std::size_t w = 0; w <= 5; ++w) {
    EXPECT_FALSE(log.trusted_state(0, w).has_value()) << w;
  }
  EXPECT_FALSE(log.trusted_state(1, 5).has_value());
}

TEST(Logger, QuarantinesNonFiniteEstimate) {
  DataLogger log(scalar_model(), 5);
  (void)log.log(0, Vec{1.0}, Vec{0.0});
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const LogEntry& e = log.log(1, Vec{nan}, Vec{0.0});
  EXPECT_TRUE(e.quarantined);
  EXPECT_TRUE(e.estimate.is_finite());   // sanitized to the previous estimate
  EXPECT_DOUBLE_EQ(e.estimate[0], 1.0);
  EXPECT_DOUBLE_EQ(e.residual[0], 0.0);  // contributes nothing
  EXPECT_EQ(log.quarantined_count(), 1u);
  // The following entry predicts from the sanitized value and stays finite.
  const LogEntry& next = log.log(2, Vec{2.0}, Vec{0.0});
  EXPECT_FALSE(next.quarantined);
  EXPECT_TRUE(next.residual.is_finite());
}

TEST(Logger, QuarantinesNonFiniteControl) {
  DataLogger log(scalar_model(), 5);
  (void)log.log(0, Vec{1.0}, Vec{0.0});
  const LogEntry& e =
      log.log(1, Vec{2.0}, Vec{std::numeric_limits<double>::infinity()});
  EXPECT_TRUE(e.quarantined);
  EXPECT_TRUE(e.control.is_finite());
  // Next prediction uses the zeroed control, not Inf.
  const LogEntry& next = log.log(2, Vec{4.0}, Vec{0.0});
  EXPECT_TRUE(next.predicted.is_finite());
}

TEST(Logger, QuarantinesFiniteInputsThatOverflowThroughThePrediction) {
  // Quarantine line 2: every input is finite, but A x̄ overflows to ±Inf.
  models::DiscreteLti m;
  m.A = linalg::Matrix{{1e300, 0.0}, {0.0, -1e300}};
  m.B = linalg::Matrix{{0.0}, {0.0}};
  m.dt = 0.1;
  m.name = "overflow";
  DataLogger log(m, 5);
  (void)log.log(0, Vec{1e10, 1e10}, Vec{0.0});
  ASSERT_EQ(log.quarantined_count(), 0u);

  const LogEntry& e = log.log(1, Vec{1.0, -2.0}, Vec{0.0});
  EXPECT_TRUE(e.quarantined);
  EXPECT_EQ(e.predicted, e.estimate);  // the overflowed ±Inf is not kept
  EXPECT_EQ(e.estimate, (Vec{1.0, -2.0}));
  EXPECT_EQ(e.residual, (Vec{0.0, 0.0}));
  EXPECT_EQ(log.quarantined_count(), 1u);

  // The next step predicts from the finite estimate: 1e300·1 stays finite.
  const LogEntry& next = log.log(2, Vec{0.0, 0.0}, Vec{0.0});
  EXPECT_FALSE(next.quarantined);
  EXPECT_TRUE(next.residual.is_finite());
  EXPECT_TRUE(log.window_mean(2, 2).is_finite());

  // The residual alone can overflow too: |1.5e308 - (-1.5e308)| = Inf.
  models::DiscreteLti id = m;
  id.A = linalg::Matrix{{1.0, 0.0}, {0.0, 1.0}};
  DataLogger log2(id, 5);
  (void)log2.log(0, Vec{1.5e308, 0.0}, Vec{0.0});
  const LogEntry& r = log2.log(1, Vec{-1.5e308, 0.0}, Vec{0.0});
  EXPECT_TRUE(r.quarantined);
  EXPECT_EQ(r.predicted, r.estimate);
  EXPECT_EQ(r.residual, (Vec{0.0, 0.0}));
  EXPECT_EQ(log2.quarantined_count(), 1u);
  EXPECT_TRUE(log2.window_mean(1, 1).is_finite());
}

TEST(Logger, WindowMeanSkipsQuarantinedEntries) {
  DataLogger log(scalar_model(), 10);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // Residuals: t1..t3 = {2, poisoned, 4}; the NaN step must not zero-bias
  // nor poison the mean.
  (void)log.log(0, Vec{1.0}, Vec{0.0});
  (void)log.log(1, Vec{0.0}, Vec{0.0});   // z = |2*1 - 0| = 2
  (void)log.log(2, Vec{nan}, Vec{0.0});   // quarantined
  (void)log.log(3, Vec{-4.0}, Vec{0.0});  // prev sanitized estimate 0 → z = 4
  const Vec mean = log.window_mean(3, 2);  // window {1, 2, 3}, valid {1, 3}
  EXPECT_DOUBLE_EQ(mean[0], 3.0);
}

TEST(Logger, AllQuarantinedWindowMeanIsZero) {
  DataLogger log(scalar_model(), 3);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  (void)log.log(0, Vec{nan}, Vec{0.0});
  (void)log.log(1, Vec{nan}, Vec{0.0});
  const Vec mean = log.window_mean(1, 1);
  EXPECT_DOUBLE_EQ(mean[0], 0.0);
  EXPECT_TRUE(mean.is_finite());
}

TEST(Logger, TrustedStateSkipsQuarantinedSeed) {
  DataLogger log(scalar_model(), 5);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (std::size_t t = 0; t < 3; ++t) (void)log.log(t, Vec{1.0}, Vec{0.0});
  (void)log.log(3, Vec{nan}, Vec{0.0});  // quarantined
  for (std::size_t t = 4; t < 7; ++t) (void)log.log(t, Vec{1.0}, Vec{0.0});
  // Seed for (t=6, w=2) is step 3 — quarantined, so no seed.
  EXPECT_FALSE(log.trusted_state(6, 2).has_value());
  // Seed for (t=6, w=1) is step 4 — clean.
  EXPECT_TRUE(log.trusted_state(6, 1).has_value());
}

TEST(Logger, LogCheckedReportsContractViolationsWithoutThrowing) {
  DataLogger log(scalar_model(), 3);
  EXPECT_TRUE(log.log_checked(0, Vec{1.0}, Vec{0.0}).is_ok());
  // Non-contiguous step.
  const core::Status gap = log.log_checked(5, Vec{1.0}, Vec{0.0});
  EXPECT_EQ(gap.code(), core::StatusCode::kOutOfRange);
  EXPECT_EQ(log.latest(), 0u);  // nothing stored on error
  // Dimension mismatches.
  EXPECT_EQ(log.log_checked(1, Vec{1.0, 2.0}, Vec{0.0}).code(),
            core::StatusCode::kInvalidInput);
  EXPECT_EQ(log.log_checked(1, Vec{1.0}, Vec{0.0, 1.0}).code(),
            core::StatusCode::kInvalidInput);
  // Quarantine is not an error.
  const core::Status q =
      log.log_checked(1, Vec{std::numeric_limits<double>::quiet_NaN()}, Vec{0.0});
  EXPECT_TRUE(q.is_ok());
  EXPECT_TRUE(log.entry(1).quarantined);
}

TEST(Logger, Validation) {
  EXPECT_THROW(DataLogger(scalar_model(), 0), std::invalid_argument);
  DataLogger log(scalar_model(), 3);
  EXPECT_THROW((void)log.log(0, Vec{0.0, 1.0}, Vec{0.0}), std::invalid_argument);
  EXPECT_THROW((void)log.log(0, Vec{0.0}, Vec{0.0, 1.0}), std::invalid_argument);
}

}  // namespace
}  // namespace awd::detect
