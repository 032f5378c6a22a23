// Unit tests for the CUSUM baseline detector.
#include <gtest/gtest.h>

#include <stdexcept>

#include "detect/cusum.hpp"

namespace awd::detect {
namespace {

models::DiscreteLti identity_model() {
  models::DiscreteLti m;
  m.A = linalg::Matrix{{1.0}};
  m.B = linalg::Matrix{{0.0}};
  m.dt = 1.0;
  m.name = "identity";
  return m;
}

TEST(Cusum, AccumulatesAboveDrift) {
  CusumDetector det(Vec{0.1}, Vec{0.5});
  // Residual 0.3 per step: statistic grows by 0.2 per step, alarms at step 3.
  EXPECT_FALSE(det.update(Vec{0.3}).alarm);  // S = 0.2
  EXPECT_FALSE(det.update(Vec{0.3}).alarm);  // S = 0.4
  EXPECT_TRUE(det.update(Vec{0.3}).alarm);   // S = 0.6 > 0.5
}

TEST(Cusum, DecaysBelowDriftAndClampsAtZero) {
  CusumDetector det(Vec{0.5}, Vec{10.0});
  (void)det.update(Vec{1.0});  // S = 0.5
  (void)det.update(Vec{0.0});  // S = 0 (clamped)
  EXPECT_EQ(det.statistic()[0], 0.0);
}

TEST(Cusum, ResetOnAlarmRestartsStatistic) {
  CusumDetector det(Vec{0.0}, Vec{0.5}, /*reset_on_alarm=*/true);
  EXPECT_TRUE(det.update(Vec{1.0}).alarm);
  EXPECT_EQ(det.statistic()[0], 0.0);
  CusumDetector keep(Vec{0.0}, Vec{0.5}, /*reset_on_alarm=*/false);
  EXPECT_TRUE(keep.update(Vec{1.0}).alarm);
  EXPECT_EQ(keep.statistic()[0], 1.0);
}

TEST(Cusum, PerDimensionIndependent) {
  CusumDetector det(Vec{0.1, 0.1}, Vec{0.5, 100.0}, false);
  const CusumDecision d = det.update(Vec{1.0, 1.0});
  EXPECT_TRUE(d.alarm);  // dim 0 crossed; dim 1 nowhere near
  EXPECT_NEAR(d.statistic[1], 0.9, 1e-12);
}

TEST(Cusum, StepReadsLoggerResidual) {
  DataLogger log(identity_model(), 5);
  (void)log.log(0, Vec{0.0}, Vec{0.0});
  (void)log.log(1, Vec{2.0}, Vec{0.0});  // residual 2.0
  CusumDetector det(Vec{0.5}, Vec{1.0});
  EXPECT_TRUE(det.step(log, 1).alarm);
}

TEST(Cusum, Validation) {
  EXPECT_THROW(CusumDetector(Vec{}, Vec{}), std::invalid_argument);
  EXPECT_THROW(CusumDetector(Vec{0.1}, Vec{0.1, 0.2}), std::invalid_argument);
  CusumDetector det(Vec{0.1}, Vec{0.5});
  EXPECT_THROW((void)det.update(Vec{0.1, 0.2}), std::invalid_argument);
}

// Boundary regimes: alarms are strict (> threshold), so landing *exactly*
// on the threshold must stay silent — the conservative tie-break the
// detector shares with the paper's window test.
TEST(Cusum, ThresholdExactlyHitDoesNotAlarm) {
  CusumDetector det(Vec{0.0}, Vec{0.5}, /*reset_on_alarm=*/false);
  EXPECT_FALSE(det.update(Vec{0.5}).alarm);  // S = 0.5 == h
  EXPECT_DOUBLE_EQ(det.statistic()[0], 0.5);
  EXPECT_TRUE(det.update(Vec{1e-9}).alarm);  // any positive excess crosses
}

TEST(Cusum, ZeroVarianceChannelStaysSilentUnderZeroResidual) {
  // A dead (zero-variance) channel with zero drift: the statistic must sit
  // exactly at 0 forever, never drifting into an alarm through accumulation.
  CusumDetector det(Vec{0.0, 0.1}, Vec{0.5, 0.5}, /*reset_on_alarm=*/false);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(det.update(Vec{0.0, 0.05}).alarm);
  }
  EXPECT_DOUBLE_EQ(det.statistic()[0], 0.0);
  EXPECT_DOUBLE_EQ(det.statistic()[1], 0.0);  // 0.05 < drift, clamped each step
}

}  // namespace
}  // namespace awd::detect
