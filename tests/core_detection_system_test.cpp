// Integration tests for the full detection pipeline (Fig. 1 architecture).
#include "core/detection_system.hpp"

#include <gtest/gtest.h>

#include "core/metrics.hpp"
#include "reach/deadline.hpp"

namespace awd::core {
namespace {

TEST(DetectionSystem, RunsTheConfiguredLength) {
  const SimulatorCase scase = simulator_case("vehicle_turning");
  DetectionSystem system(scase, AttackKind::kNone, 1);
  const sim::Trace trace = system.run();
  EXPECT_EQ(trace.size(), scase.steps);
  DetectionSystem system2(scase, AttackKind::kNone, 1);
  EXPECT_EQ(system2.run(50).size(), 50u);
}

TEST(DetectionSystem, DeadlineDefaultsToMaxWindowEarlyOn) {
  const SimulatorCase scase = simulator_case("series_rlc");
  DetectionSystem system(scase, AttackKind::kNone, 2);
  const sim::StepRecord first = system.step();
  EXPECT_EQ(first.deadline, scase.max_window);
}

TEST(DetectionSystem, WindowNeverExceedsMaxWindow) {
  const SimulatorCase scase = simulator_case("aircraft_pitch");
  DetectionSystem system(scase, AttackKind::kBias, 3);
  const sim::Trace trace = system.run();
  for (const auto& rec : trace) {
    EXPECT_LE(rec.window, scase.max_window);
    EXPECT_LE(rec.window, rec.deadline);
  }
}

TEST(DetectionSystem, SameSeedIsFullyDeterministic) {
  const SimulatorCase scase = simulator_case("series_rlc");
  DetectionSystem a(scase, AttackKind::kReplay, 9);
  DetectionSystem b(scase, AttackKind::kReplay, 9);
  const sim::Trace ta = a.run();
  const sim::Trace tb = b.run();
  ASSERT_EQ(ta.size(), tb.size());
  for (std::size_t i = 0; i < ta.size(); ++i) {
    EXPECT_EQ(ta[i].adaptive_alarm, tb[i].adaptive_alarm);
    EXPECT_EQ(ta[i].deadline, tb[i].deadline);
    EXPECT_EQ(ta[i].true_state[0], tb[i].true_state[0]);
  }
}

TEST(DetectionSystem, BiasAttackDetectedBeforeDeadlineAcrossSeeds) {
  const SimulatorCase scase = simulator_case("aircraft_pitch");
  int in_time = 0;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    DetectionSystem system(scase, AttackKind::kBias, seed);
    const sim::Trace trace = system.run();
    const RunMetrics m = compute_metrics(trace, scase.attack_start, scase.attack_duration,
                                         Strategy::kAdaptive);
    if (!m.deadline_miss) ++in_time;
  }
  EXPECT_GE(in_time, 4);  // the paper's headline behaviour
}

TEST(DetectionSystem, FixedWindowOverride) {
  const SimulatorCase scase = simulator_case("vehicle_turning");
  DetectionSystemOptions opts;
  opts.fixed_window = 2;
  DetectionSystem system(scase, AttackKind::kBias, 4, opts);
  // With a tiny fixed window the baseline behaves like the adaptive
  // detector at onset: the bias spike must be caught quickly.
  const sim::Trace trace = system.run();
  const RunMetrics mf = compute_metrics(trace, scase.attack_start, scase.attack_duration,
                                        Strategy::kFixed);
  ASSERT_TRUE(mf.first_alarm_after_onset.has_value());
  EXPECT_LE(*mf.first_alarm_after_onset - scase.attack_start, 3u);
}

TEST(DetectionSystem, EvaluationCounterAdvances) {
  const SimulatorCase scase = simulator_case("vehicle_turning");
  DetectionSystem system(scase, AttackKind::kNone, 5);
  (void)system.run(100);
  // At least one evaluation per step; shrinks add complementary sweeps.
  EXPECT_GE(system.adaptive_evaluations(), 100u);
}

TEST(DetectionSystem, UnsafeFlagTracksSafeSet) {
  const SimulatorCase scase = testbed_case();
  DetectionSystem system(scase, AttackKind::kBias, 7);
  const sim::Trace trace = system.run();
  for (const auto& rec : trace) {
    EXPECT_EQ(rec.unsafe, !scase.safe_set.contains(rec.true_state));
  }
}

TEST(DetectionSystem, TestbedReproducesFig8Ordering) {
  // The §6.2 headline: adaptive alerts before the car leaves the safe
  // range; the fixed window-30 detector does not alert before it.
  const SimulatorCase scase = testbed_case();
  int adaptive_before_unsafe = 0;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    DetectionSystem system(scase, AttackKind::kBias, seed);
    const sim::Trace trace = system.run();
    const RunMetrics ma = compute_metrics(trace, scase.attack_start,
                                          scase.attack_duration, Strategy::kAdaptive);
    const RunMetrics mf = compute_metrics(trace, scase.attack_start,
                                          scase.attack_duration, Strategy::kFixed);
    ASSERT_TRUE(ma.first_alarm_after_onset.has_value()) << "seed " << seed;
    ASSERT_TRUE(ma.first_unsafe.has_value()) << "seed " << seed;
    if (*ma.first_alarm_after_onset < *ma.first_unsafe) ++adaptive_before_unsafe;
    if (mf.first_alarm_after_onset) {
      EXPECT_GT(*mf.first_alarm_after_onset, *ma.first_unsafe) << "seed " << seed;
    }
  }
  EXPECT_GE(adaptive_before_unsafe, 4);
}

TEST(DetectionSystem, AccessorsExposeComponents) {
  const SimulatorCase scase = simulator_case("series_rlc");
  DetectionSystem system(scase, AttackKind::kNone, 1);
  EXPECT_EQ(system.scase().key, "series_rlc");
  EXPECT_EQ(system.logger().max_window(), scase.max_window);
  EXPECT_EQ(system.estimator().config().max_window, scase.max_window);
  EXPECT_EQ(system.estimator().kind(), reach::BackendKind::kBox);
  EXPECT_EQ(system.estimator().name(), "box");
  const auto* cached = dynamic_cast<const reach::BoxBackend*>(&system.estimator());
  ASSERT_NE(cached, nullptr);
  EXPECT_DOUBLE_EQ(cached->reach().uncertainty_bound(), scase.eps_reach);
}

}  // namespace
}  // namespace awd::core
