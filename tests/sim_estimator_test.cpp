// Tests for the estimation stage: §2's passthrough (estimate = measurement)
// behind the sample validation the closed loop's hold-last-value fallback
// relies on.
#include "sim/estimator.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <optional>

namespace awd::sim {
namespace {

TEST(Estimator, PassthroughReturnsMeasurement) {
  const Estimator est;
  const Vec y{1.0, 2.0};
  Vec out;
  ASSERT_TRUE(est.estimate_checked_into(y, out).is_ok());
  EXPECT_EQ(out, y);
}

TEST(Estimator, CheckedAcceptsFiniteSamples) {
  const Estimator est;
  Vec out{9.0};
  const core::Status ok = est.estimate_checked_into(Vec{1.0, 2.0}, out);
  ASSERT_TRUE(ok.is_ok());
  EXPECT_EQ(out, (Vec{1.0, 2.0}));
}

TEST(Estimator, CheckedRejectsMissingSample) {
  const Estimator est;
  Vec out;
  const core::Status missing = est.estimate_checked_into(std::nullopt, out);
  EXPECT_FALSE(missing.is_ok());
  EXPECT_EQ(missing.code(), core::StatusCode::kUnavailable);
}

TEST(Estimator, CheckedRejectsNonFiniteSample) {
  const Estimator est;
  Vec out;
  const core::Status nan =
      est.estimate_checked_into(Vec{std::numeric_limits<double>::quiet_NaN()}, out);
  EXPECT_FALSE(nan.is_ok());
  EXPECT_EQ(nan.code(), core::StatusCode::kInvalidInput);
  const core::Status inf =
      est.estimate_checked_into(Vec{std::numeric_limits<double>::infinity()}, out);
  EXPECT_EQ(inf.code(), core::StatusCode::kInvalidInput);
}

TEST(Estimator, CheckedRejectionLeavesFilterStateUntouched) {
  // The passthrough stage's only state is the last good estimate, which the
  // caller holds in `out`; a rejected sample must not overwrite it.
  const Estimator est;
  Vec out{0.25, 0.5};
  (void)est.estimate_checked_into(std::nullopt, out);
  EXPECT_EQ(out, (Vec{0.25, 0.5}));
  (void)est.estimate_checked_into(Vec{1.0, std::numeric_limits<double>::quiet_NaN()},
                                  out);
  EXPECT_EQ(out, (Vec{0.25, 0.5}));
}

TEST(Estimator, StateTagRoundTripsAndForeignTagIsRejected) {
  // Snapshots carry the stage's one-byte state tag 0.
  const Estimator est;
  core::ckpt::Writer w;
  est.serialize_state(w);
  ASSERT_EQ(w.size(), 1u);
  EXPECT_EQ(w.data()[0], 0u);
  core::ckpt::Reader r(w.data().data(), w.size());
  EXPECT_TRUE(est.restore_state(r).is_ok());

  const std::uint8_t foreign = 2;
  core::ckpt::Reader bad(&foreign, 1);
  EXPECT_EQ(est.restore_state(bad).code(), core::StatusCode::kDataLoss);
}

}  // namespace
}  // namespace awd::sim
