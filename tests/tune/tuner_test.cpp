// Tune-tier tests for src/tune: chi2 math spot checks, the ISSUE acceptance
// gates (the tuner hits its target FAR within the relative tolerance on all
// four small seed plants, bit-identically at any thread count), FAR
// monotonicity in the threshold scale, typed rejection of bad options, and
// ROC sweep determinism/sanity.
#include "tune/tuner.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/config.hpp"
#include "tune/roc.hpp"

namespace awd::tune {
namespace {

constexpr const char* kSeedPlants[] = {"aircraft_pitch", "vehicle_turning",
                                       "series_rlc", "dc_motor"};

TEST(Chi2, TailKnownValues) {
  // chi2(2) has the closed-form tail exp(-x/2).
  EXPECT_NEAR(chi2_tail(2.0, 2.0 * std::log(2.0)), 0.5, 1e-12);
  EXPECT_NEAR(chi2_tail(2.0, 0.0), 1.0, 1e-12);
  // Classic table entries.
  EXPECT_NEAR(chi2_tail(1.0, 3.841458820694124), 0.05, 1e-9);
  EXPECT_NEAR(chi2_tail(4.0, 9.487729036781154), 0.05, 1e-9);
}

TEST(Chi2, QuantileMatchesTables) {
  EXPECT_NEAR(chi2_quantile(1.0, 0.05), 3.841458820694124, 1e-6);
  EXPECT_NEAR(chi2_quantile(4.0, 0.05), 9.487729036781154, 1e-6);
  EXPECT_NEAR(chi2_quantile(10.0, 0.01), 23.209251158954356, 1e-5);
}

TEST(Chi2, QuantileInvertsTail) {
  for (const double dof : {1.0, 3.0, 7.5, 40.0}) {
    for (const double alpha : {0.2, 0.05, 0.005}) {
      const double x = chi2_quantile(dof, alpha);
      EXPECT_NEAR(chi2_tail(dof, x), alpha, 1e-10) << "dof " << dof;
    }
  }
}

TEST(Chi2, RejectsBadArguments) {
  EXPECT_THROW((void)chi2_tail(0.0, 1.0), std::invalid_argument);
  EXPECT_THROW((void)chi2_quantile(1.0, 0.0), std::invalid_argument);
  EXPECT_THROW((void)chi2_quantile(1.0, 1.0), std::invalid_argument);
}

// The ISSUE acceptance gate: on every small seed plant the tuner converges
// and the achieved FAR lands within +-20 % (relative) of the target.
TEST(Tuner, HitsTargetFarOnSeedPlants) {
  for (const char* plant : kSeedPlants) {
    const core::SimulatorCase scase = core::simulator_case(plant);
    TuneOptions opts;
    opts.target_far = 0.05;
    opts.trials = 12;
    opts.rel_tolerance = 0.2;
    opts.threads = 3;
    const core::Result<TuneReport> res = tune_detector(scase, opts);
    ASSERT_TRUE(res.is_ok()) << plant << ": " << res.status().message();
    const TuneReport& rep = res.value();
    EXPECT_TRUE(rep.converged)
        << plant << ": achieved " << rep.achieved_far << " vs target "
        << opts.target_far << " after " << rep.iterations << " measurements";
    EXPECT_LE(std::abs(rep.achieved_far - opts.target_far),
              opts.rel_tolerance * opts.target_far)
        << plant << ": achieved " << rep.achieved_far;
    // The evidence base must be real: thousands of clean steps, a valid
    // tuned case, strictly positive thresholds.
    EXPECT_GT(rep.clean_steps, 1000u) << plant;
    EXPECT_TRUE(rep.tuned.check().is_ok()) << plant;
    for (std::size_t d = 0; d < rep.tuned.tau.size(); ++d) {
      EXPECT_GT(rep.tuned.tau[d], 0.0) << plant << " dim " << d;
      EXPECT_GT(rep.sigma[d], 0.0) << plant << " dim " << d;
    }
    EXPECT_GT(rep.chi2_threshold, 0.0) << plant;
  }
}

// Determinism across thread counts: the whole report (scale, thresholds,
// measured rates, iteration count) must be bitwise identical.
TEST(Tuner, ReportBitIdenticalAcrossThreadCounts) {
  const core::SimulatorCase scase = core::simulator_case("vehicle_turning");
  TuneOptions opts;
  opts.target_far = 0.05;
  opts.trials = 8;
  opts.threads = 1;
  const TuneReport serial = tune_detector(scase, opts).value();
  opts.threads = 3;
  const TuneReport parallel = tune_detector(scase, opts).value();
  opts.threads = 7;
  const TuneReport odd = tune_detector(scase, opts).value();

  for (const TuneReport* rep : {&parallel, &odd}) {
    EXPECT_EQ(serial.scale, rep->scale);
    EXPECT_EQ(serial.achieved_far, rep->achieved_far);
    EXPECT_EQ(serial.achieved_far_fixed, rep->achieved_far_fixed);
    EXPECT_EQ(serial.iterations, rep->iterations);
    EXPECT_EQ(serial.converged, rep->converged);
    EXPECT_EQ(serial.clean_steps, rep->clean_steps);
    ASSERT_EQ(serial.tuned.tau.size(), rep->tuned.tau.size());
    for (std::size_t d = 0; d < serial.tuned.tau.size(); ++d) {
      EXPECT_EQ(serial.tuned.tau[d], rep->tuned.tau[d]) << "dim " << d;
      EXPECT_EQ(serial.sigma[d], rep->sigma[d]) << "dim " << d;
      EXPECT_EQ(serial.tau0[d], rep->tau0[d]) << "dim " << d;
    }
  }
}

TEST(Tuner, MeasuredFarMonotoneInThresholdScale) {
  core::SimulatorCase scase = core::simulator_case("vehicle_turning");
  TuneOptions opts;
  opts.trials = 6;
  std::size_t prev_alarms = static_cast<std::size_t>(-1);
  for (const double scale : {0.5, 1.0, 2.0, 4.0}) {
    core::SimulatorCase probe = scase;
    for (std::size_t d = 0; d < probe.tau.size(); ++d) probe.tau[d] = scase.tau[d] * scale;
    const FarSample f = measure_far(probe, opts);
    // Detection is passive: the residual stream is threshold-independent,
    // so raising tau can only remove alarms, never add them.
    EXPECT_LE(f.alarms, prev_alarms) << "scale " << scale;
    prev_alarms = f.alarms;
  }
}

TEST(Tuner, MeasureFarBitIdenticalAcrossThreadCounts) {
  const core::SimulatorCase scase = core::simulator_case("dc_motor");
  TuneOptions opts;
  opts.trials = 9;
  opts.threads = 1;
  const FarSample serial = measure_far(scase, opts);
  opts.threads = 4;
  const FarSample parallel = measure_far(scase, opts);
  EXPECT_EQ(serial.alarms, parallel.alarms);
  EXPECT_EQ(serial.alarms_fixed, parallel.alarms_fixed);
  EXPECT_EQ(serial.clean_steps, parallel.clean_steps);
  EXPECT_EQ(serial.far, parallel.far);
  EXPECT_EQ(serial.far_fixed, parallel.far_fixed);
}

TEST(Tuner, RejectsOutOfRangeOptions) {
  const core::SimulatorCase scase = core::simulator_case("vehicle_turning");
  {
    TuneOptions opts;
    opts.target_far = 1.5;
    const core::Result<TuneReport> res = tune_detector(scase, opts);
    ASSERT_FALSE(res.is_ok());
    EXPECT_EQ(res.status().code(), core::StatusCode::kInvalidInput);
  }
  {
    TuneOptions opts;
    opts.target_far = -0.1;
    EXPECT_FALSE(tune_detector(scase, opts).is_ok());
  }
  {
    TuneOptions opts;
    opts.rel_tolerance = 0.0;
    EXPECT_FALSE(tune_detector(scase, opts).is_ok());
  }
  {
    TuneOptions opts;
    opts.max_iterations = 3;
    EXPECT_FALSE(tune_detector(scase, opts).is_ok());
  }
  {
    // An invalid case is rejected with a typed Status, not an exception.
    core::SimulatorCase bad = scase;
    bad.tune_trials = 0;
    const core::Result<TuneReport> res = tune_detector(bad, TuneOptions{});
    ASSERT_FALSE(res.is_ok());
    EXPECT_EQ(res.status().code(), core::StatusCode::kInvalidInput);
  }
}

TEST(Roc, SweepDeterministicAndSane) {
  const core::SimulatorCase scase = core::simulator_case("vehicle_turning");
  RocOptions opts;
  opts.scales = {0.5, 1.0, 2.0};
  opts.far_trials = 4;
  opts.tpr_trials = 2;
  opts.threads = 3;
  const RocCurve a = roc_sweep(scase, opts).value();
  opts.threads = 1;
  const RocCurve b = roc_sweep(scase, opts).value();

  ASSERT_EQ(a.points.size(), 3u);
  EXPECT_EQ(a.auc, b.auc);  // bitwise across thread counts
  EXPECT_GE(a.auc, 0.0);
  EXPECT_LE(a.auc, 1.0);
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    EXPECT_EQ(a.points[i].far, b.points[i].far);
    EXPECT_EQ(a.points[i].detected, b.points[i].detected);
    EXPECT_GE(a.points[i].far, 0.0);
    EXPECT_LE(a.points[i].far, 1.0);
    EXPECT_GE(a.points[i].tpr, 0.0);
    EXPECT_LE(a.points[i].tpr, 1.0);
    EXPECT_EQ(a.points[i].attacked_runs, opts.tpr_trials * 4);  // 4 attack kinds
  }
}

TEST(Roc, RejectsDegenerateOptions) {
  const core::SimulatorCase scase = core::simulator_case("vehicle_turning");
  {
    RocOptions opts;
    opts.far_trials = 0;
    EXPECT_FALSE(roc_sweep(scase, opts).is_ok());
  }
  {
    RocOptions opts;
    opts.attacks.clear();
    EXPECT_FALSE(roc_sweep(scase, opts).is_ok());
  }
  {
    RocOptions opts;
    opts.scales = {0.0};
    EXPECT_FALSE(roc_sweep(scase, opts).is_ok());
  }
  {
    core::SimulatorCase no_attack = scase;
    no_attack.attack_start = 0;
    no_attack.attack_duration = 0;
    EXPECT_FALSE(roc_sweep(no_attack, RocOptions{}).is_ok());
  }
}

TEST(Tuner, PinnedDcMotorReport) {
  // Cross-commit pin of one whole tuning run (dc_motor, 6 trials).  The
  // thread-count tests compare two runs of the same code; these values were
  // recorded from an earlier build and are compared bitwise.
  TuneOptions opts;
  opts.trials = 6;
  opts.threads = 3;
  const TuneReport r = tune_detector(core::simulator_case("dc_motor"), opts).value();
  EXPECT_EQ(r.scale, 0x1.6a09e667f3bcdp+0);
  EXPECT_EQ(r.achieved_far, 0x1.47124d7d44382p-6);
  EXPECT_EQ(r.achieved_far_fixed, 0x0p+0);
  EXPECT_EQ(r.iterations, 3u);
  EXPECT_EQ(r.clean_steps, 2154u);
  EXPECT_TRUE(r.converged);
  const Vec sigma{0x1.228a0e10a07c5p-4, 0x1.25662185d0866p-4, 0x1.22142d67c7cb1p-4};
  const Vec tau0{0x1.2c47ef5633718p-4, 0x1.2f3c8ea8e9512p-4, 0x1.2bce1adc3fde1p-4};
  const Vec tau{0x1.a8a95539dea4dp-4, 0x1.acd75bc7681c3p-4, 0x1.a7fd0a0f4d8ebp-4};
  ASSERT_EQ(r.sigma.size(), 3u);
  for (std::size_t d = 0; d < 3; ++d) {
    EXPECT_EQ(r.sigma[d], sigma[d]) << d;
    EXPECT_EQ(r.tau0[d], tau0[d]) << d;
    EXPECT_EQ(r.tuned.tau[d], tau[d]) << d;
  }
}

TEST(Roc, PinnedAircraftPitchCurve) {
  // Cross-commit pin of one ROC curve at the RocFloor options.
  RocOptions opts;
  opts.scales = {0.45, 0.7, 1.0, 1.4, 2.0};
  opts.far_trials = 6;
  opts.tpr_trials = 4;
  opts.threads = 3;
  const RocCurve c = roc_sweep(core::simulator_case("aircraft_pitch"), opts).value();
  const double far[] = {0x1.ff4972cecbf1cp-1, 0x1.44eea5e9a80d5p-1, 0x1.029d5b09bedefp-5,
                        0x1.e6cdd88ad0b2cp-11, 0x0p+0};
  const std::size_t detected[] = {16, 16, 16, 12, 8};
  ASSERT_EQ(c.points.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(c.points[i].far, far[i]) << i;
    EXPECT_EQ(c.points[i].detected, detected[i]) << i;
  }
  EXPECT_EQ(c.auc, 0x1.fddc586c63d53p-1);
}

}  // namespace
}  // namespace awd::tune
