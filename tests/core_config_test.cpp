// Unit tests for the experiment configurations (Table 1 encodings).
#include "core/config.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "models/model_bank.hpp"

namespace awd::core {
namespace {

TEST(Config, AllTable1CasesValidate) {
  const auto cases = table1_cases();
  ASSERT_EQ(cases.size(), 5u);
  for (const auto& c : cases) EXPECT_NO_THROW(c.validate()) << c.key;
}

TEST(Config, Table1Order) {
  const auto cases = table1_cases();
  EXPECT_EQ(cases[0].key, "aircraft_pitch");
  EXPECT_EQ(cases[1].key, "vehicle_turning");
  EXPECT_EQ(cases[2].key, "series_rlc");
  EXPECT_EQ(cases[3].key, "dc_motor");
  EXPECT_EQ(cases[4].key, "quadrotor");
}

TEST(Config, LookupByKey) {
  EXPECT_EQ(simulator_case("series_rlc").display_name, "Series RLC Circuit");
  EXPECT_EQ(simulator_case("testbed_car").key, "testbed_car");
  EXPECT_THROW((void)simulator_case("nonexistent"), std::invalid_argument);
}

// Table 1 row checks: δ, PID, U, conservative ε bound, safe set S, τ.
TEST(Config, AircraftPitchMatchesTable1) {
  const SimulatorCase c = simulator_case("aircraft_pitch");
  EXPECT_DOUBLE_EQ(c.model.dt, 0.02);
  EXPECT_DOUBLE_EQ(c.pid.kp, 14.0);
  EXPECT_DOUBLE_EQ(c.pid.ki, 0.8);
  EXPECT_DOUBLE_EQ(c.pid.kd, 5.7);
  EXPECT_DOUBLE_EQ(c.u_range[0].lo, -7.0);
  EXPECT_DOUBLE_EQ(c.u_range[0].hi, 7.0);
  EXPECT_DOUBLE_EQ(c.eps_reach, 7.8e-3);
  EXPECT_DOUBLE_EQ(c.safe_set[2].lo, -2.5);
  EXPECT_DOUBLE_EQ(c.safe_set[2].hi, 2.5);
  EXPECT_FALSE(c.safe_set[0].bounded());
  EXPECT_EQ(c.tau, (Vec{0.012, 0.012, 0.012}));
  EXPECT_EQ(c.max_window, 40u);  // §6.1.2's chosen w_m
}

TEST(Config, VehicleTurningMatchesTable1) {
  const SimulatorCase c = simulator_case("vehicle_turning");
  EXPECT_DOUBLE_EQ(c.model.dt, 0.02);
  EXPECT_DOUBLE_EQ(c.pid.kp, 0.5);
  EXPECT_DOUBLE_EQ(c.pid.ki, 7.0);
  EXPECT_DOUBLE_EQ(c.u_range[0].hi, 3.0);
  EXPECT_DOUBLE_EQ(c.eps_reach, 7.5e-2);
  EXPECT_DOUBLE_EQ(c.safe_set[0].hi, 2.0);
  EXPECT_EQ(c.tau, (Vec{0.07}));
}

TEST(Config, SeriesRlcMatchesTable1) {
  const SimulatorCase c = simulator_case("series_rlc");
  EXPECT_DOUBLE_EQ(c.pid.kp, 5.0);
  EXPECT_DOUBLE_EQ(c.pid.ki, 5.0);
  EXPECT_DOUBLE_EQ(c.u_range[0].hi, 5.0);
  EXPECT_DOUBLE_EQ(c.eps_reach, 1.7e-2);
  EXPECT_DOUBLE_EQ(c.safe_set[0].hi, 3.5);
  EXPECT_DOUBLE_EQ(c.safe_set[1].hi, 5.0);
  EXPECT_EQ(c.tau, (Vec{0.04, 0.01}));
}

TEST(Config, DcMotorMatchesTable1) {
  const SimulatorCase c = simulator_case("dc_motor");
  EXPECT_DOUBLE_EQ(c.model.dt, 0.1);
  EXPECT_DOUBLE_EQ(c.pid.kp, 11.0);
  EXPECT_DOUBLE_EQ(c.pid.kd, 5.0);
  EXPECT_DOUBLE_EQ(c.u_range[0].hi, 20.0);
  EXPECT_DOUBLE_EQ(c.eps_reach, 1.5e-1);
  EXPECT_DOUBLE_EQ(c.safe_set[0].hi, 4.0);
  EXPECT_FALSE(c.safe_set[1].bounded());
}

TEST(Config, QuadrotorMatchesTable1) {
  const SimulatorCase c = simulator_case("quadrotor");
  EXPECT_DOUBLE_EQ(c.model.dt, 0.1);
  EXPECT_EQ(c.model.state_dim(), 12u);
  EXPECT_EQ(c.model.input_dim(), 4u);
  EXPECT_DOUBLE_EQ(c.pid.kp, 0.8);
  EXPECT_DOUBLE_EQ(c.pid.kd, 1.0);
  EXPECT_DOUBLE_EQ(c.eps, 1.56e-15);
  EXPECT_DOUBLE_EQ(c.safe_set[2].hi, 5.0);
  for (std::size_t i = 0; i < 12; ++i) EXPECT_DOUBLE_EQ(c.tau[i], 0.018);
}

TEST(Config, TestbedMatchesSection62) {
  const SimulatorCase c = testbed_case();
  EXPECT_DOUBLE_EQ(c.model.A(0, 0), 0.8435);
  EXPECT_DOUBLE_EQ(c.model.B(0, 0), 7.7919e-4);
  EXPECT_DOUBLE_EQ(c.safe_set[0].lo, 5.2e-3);
  EXPECT_DOUBLE_EQ(c.safe_set[0].hi, 2.6e-2);
  EXPECT_DOUBLE_EQ(c.tau[0], 3.67e-3);
  EXPECT_DOUBLE_EQ(c.u_range[0].lo, 0.0);
  EXPECT_DOUBLE_EQ(c.u_range[0].hi, 7.7);
  EXPECT_EQ(c.attack_start, 79u);
  EXPECT_NEAR(c.bias[0], 2.5 / models::kTestbedCarC, 1e-12);
  EXPECT_EQ(c.fixed_window, 30u);  // Fig. 8's fixed baseline
}

TEST(Config, EpsReachIsConservative) {
  for (const auto& c : table1_cases()) {
    if (c.eps_reach != 0.0) {
      EXPECT_GE(c.eps_reach, c.eps) << c.key;
    }
  }
}

TEST(Config, MakeControllerProducesWorkingPid) {
  const SimulatorCase c = simulator_case("vehicle_turning");
  auto ctrl = c.make_controller();
  ASSERT_NE(ctrl, nullptr);
  EXPECT_NO_THROW((void)ctrl->compute(c.x0, c.reference));
}

TEST(Config, MakeAttackAllKinds) {
  const SimulatorCase c = simulator_case("aircraft_pitch");
  EXPECT_EQ(c.make_attack(AttackKind::kNone)->name(), "none");
  EXPECT_EQ(c.make_attack(AttackKind::kBias)->name(), "bias");
  EXPECT_EQ(c.make_attack(AttackKind::kDelay)->name(), "delay");
  EXPECT_EQ(c.make_attack(AttackKind::kReplay)->name(), "replay");
  EXPECT_EQ(c.make_attack(AttackKind::kRamp)->name(), "ramp");
}

TEST(Config, ReplayDurationClampedToRecordedPrefix) {
  SimulatorCase c = simulator_case("aircraft_pitch");
  c.replay_record_start = 100;  // only 50 steps available before the attack
  const auto attack = c.make_attack(AttackKind::kReplay);
  EXPECT_TRUE(attack->active(c.attack_start));
  EXPECT_TRUE(attack->active(c.attack_start + 49));
  EXPECT_FALSE(attack->active(c.attack_start + 50));
}

TEST(Config, AttackKindToString) {
  EXPECT_EQ(to_string(AttackKind::kNone), "none");
  EXPECT_EQ(to_string(AttackKind::kRamp), "ramp");
}

TEST(Config, ValidationCatchesBrokenCase) {
  SimulatorCase c = simulator_case("vehicle_turning");
  c.tau = Vec{0.1, 0.1};
  EXPECT_THROW(c.validate(), std::invalid_argument);

  c = simulator_case("vehicle_turning");
  c.attack_start = c.steps;
  EXPECT_THROW(c.validate(), std::invalid_argument);

  c = simulator_case("vehicle_turning");
  c.eps_reach = c.eps / 2.0;
  EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(Config, ValidationRejectsNonFiniteValues) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();

  auto broken = [](auto mutate) {
    SimulatorCase c = simulator_case("vehicle_turning");
    mutate(c);
    return c;
  };

  // Each descriptive message names the offending field.
  try {
    broken([&](SimulatorCase& c) { c.tau[0] = nan; }).validate();
    FAIL() << "non-finite tau accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("tau"), std::string::npos);
  }
  EXPECT_THROW(broken([&](SimulatorCase& c) { c.tau[0] = inf; }).validate(),
               std::invalid_argument);
  EXPECT_THROW(broken([&](SimulatorCase& c) { c.tau[0] = -0.1; }).validate(),
               std::invalid_argument);
  EXPECT_THROW(broken([&](SimulatorCase& c) { c.x0[0] = nan; }).validate(),
               std::invalid_argument);
  EXPECT_THROW(broken([&](SimulatorCase& c) { c.reference[0] = inf; }).validate(),
               std::invalid_argument);
  EXPECT_THROW(broken([&](SimulatorCase& c) { c.sensor_noise[0] = nan; }).validate(),
               std::invalid_argument);
  EXPECT_THROW(broken([&](SimulatorCase& c) { c.sensor_noise[0] = -1.0; }).validate(),
               std::invalid_argument);
  EXPECT_THROW(broken([&](SimulatorCase& c) { c.bias[0] = nan; }).validate(),
               std::invalid_argument);
  EXPECT_THROW(broken([&](SimulatorCase& c) { c.ramp_slope[0] = inf; }).validate(),
               std::invalid_argument);
  EXPECT_THROW(broken([&](SimulatorCase& c) { c.eps = nan; }).validate(),
               std::invalid_argument);
  EXPECT_THROW(broken([&](SimulatorCase& c) { c.eps = inf; }).validate(),
               std::invalid_argument);
  EXPECT_THROW(broken([&](SimulatorCase& c) { c.eps_reach = nan; }).validate(),
               std::invalid_argument);
  EXPECT_THROW(
      broken([&](SimulatorCase& c) { c.reference_schedule = {{10, Vec{nan}}}; }).validate(),
      std::invalid_argument);
}

TEST(Config, CheckIsNoexceptAndOkOnEveryTemplate) {
  static_assert(noexcept(std::declval<const SimulatorCase&>().check()));
  for (const SimulatorCase& c : table1_cases()) {
    const Status s = c.check();
    EXPECT_TRUE(s.is_ok()) << c.key << ": " << s.message();
  }
  EXPECT_TRUE(testbed_case().check().is_ok());
}

TEST(Config, CheckRejectsZeroMaxWindowWithClearMessage) {
  SimulatorCase c = simulator_case("dc_motor");
  c.max_window = 0;
  const Status s = c.check();
  ASSERT_FALSE(s.is_ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidInput);
  EXPECT_NE(s.message().find("max_window"), std::string_view::npos);

  try {
    c.validate();
    FAIL() << "max_window == 0 accepted";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("dc_motor"), std::string::npos);
    EXPECT_NE(what.find("max_window must be >= 1"), std::string::npos);
  }
}

TEST(Config, CheckRejectsNonPositiveTauWithClearMessage) {
  for (const double bad : {0.0, -0.07}) {
    SimulatorCase c = simulator_case("vehicle_turning");
    c.tau[0] = bad;
    const Status s = c.check();
    ASSERT_FALSE(s.is_ok()) << "tau = " << bad << " accepted";
    EXPECT_EQ(s.code(), StatusCode::kInvalidInput);
    EXPECT_NE(s.message().find("tau must be > 0"), std::string_view::npos);
    try {
      c.validate();
      FAIL() << "tau = " << bad << " accepted by validate()";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("tau"), std::string::npos);
    }
  }
}

TEST(Config, CheckReportsShapeMismatchesWithoutThrowing) {
  SimulatorCase c = simulator_case("vehicle_turning");
  c.tau = Vec{0.1, 0.1};  // scalar plant: wrong threshold dimension
  const Status s = c.check();
  ASSERT_FALSE(s.is_ok());
  EXPECT_NE(s.message().find("tau dimension mismatch"), std::string_view::npos);
}

TEST(Config, UnknownKeyErrorListsValidNames) {
  try {
    (void)simulator_case("warp_drive");
    FAIL() << "unknown key accepted";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("warp_drive"), std::string::npos);
    for (const char* key : {"aircraft_pitch", "vehicle_turning", "series_rlc",
                            "dc_motor", "quadrotor", "testbed_car"}) {
      EXPECT_NE(what.find(key), std::string::npos) << key;
    }
  }
}

TEST(Config, MakeAttackAdversarialKinds) {
  const SimulatorCase c = simulator_case("aircraft_pitch");
  EXPECT_EQ(c.make_attack(AttackKind::kStealthyRamp)->name(), "stealthy_ramp");
  EXPECT_EQ(c.make_attack(AttackKind::kJitterReplay)->name(), "jitter_replay");
  EXPECT_EQ(c.make_attack(AttackKind::kCoordinatedBias)->name(), "coordinated_bias");
  EXPECT_EQ(c.make_attack(AttackKind::kIntermittentBias)->name(), "intermittent_bias");
  EXPECT_EQ(to_string(AttackKind::kStealthyRamp), "stealthy_ramp");
  EXPECT_EQ(to_string(AttackKind::kIntermittentBias), "intermittent_bias");
}

TEST(Config, CheckRejectsTargetFarOutsideOpenUnitInterval) {
  // The interval is open at both ends: 0 and 1 are invalid, the adjacent
  // representable doubles are valid.
  for (const double bad : {0.0, 1.0, -0.01, 1.5,
                           std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    SimulatorCase c = simulator_case("vehicle_turning");
    c.target_far = bad;
    const Status s = c.check();
    ASSERT_FALSE(s.is_ok()) << "target_far = " << bad;
    EXPECT_EQ(s.code(), StatusCode::kInvalidInput);
    EXPECT_NE(s.message().find("target_far"), std::string_view::npos);
  }
  for (const double good : {std::nextafter(0.0, 1.0), std::nextafter(1.0, 0.0), 0.5}) {
    SimulatorCase c = simulator_case("vehicle_turning");
    c.target_far = good;
    EXPECT_TRUE(c.check().is_ok()) << "target_far = " << good;
  }
}

TEST(Config, CheckRejectsZeroTuneTrials) {
  SimulatorCase c = simulator_case("vehicle_turning");
  c.tune_trials = 0;
  const Status s = c.check();
  ASSERT_FALSE(s.is_ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidInput);
  EXPECT_NE(s.message().find("tune_trials"), std::string_view::npos);
  c.tune_trials = 1;  // the boundary itself is valid
  EXPECT_TRUE(c.check().is_ok());
}

TEST(Config, CheckRejectsStealthMarginOutsideOpenUnitInterval) {
  for (const double bad : {0.0, 1.0, -0.2, 2.0,
                           std::numeric_limits<double>::quiet_NaN()}) {
    SimulatorCase c = simulator_case("vehicle_turning");
    c.stealth_margin = bad;
    const Status s = c.check();
    ASSERT_FALSE(s.is_ok()) << "stealth_margin = " << bad;
    EXPECT_NE(s.message().find("stealth_margin"), std::string_view::npos);
  }
  SimulatorCase c = simulator_case("vehicle_turning");
  c.stealth_margin = std::nextafter(1.0, 0.0);
  EXPECT_TRUE(c.check().is_ok());
}

TEST(Config, CheckRejectsDegenerateIntermittentDutyCycle) {
  {
    SimulatorCase c = simulator_case("vehicle_turning");
    c.intermittent_period = 1;
    EXPECT_FALSE(c.check().is_ok());
  }
  {
    SimulatorCase c = simulator_case("vehicle_turning");
    c.intermittent_on = 0;
    EXPECT_FALSE(c.check().is_ok());
  }
  {
    SimulatorCase c = simulator_case("vehicle_turning");
    c.intermittent_period = 4;
    c.intermittent_on = 4;  // always-on is not intermittent
    const Status s = c.check();
    ASSERT_FALSE(s.is_ok());
    EXPECT_NE(s.message().find("intermittent_on"), std::string_view::npos);
  }
  {
    SimulatorCase c = simulator_case("vehicle_turning");
    c.intermittent_period = 2;
    c.intermittent_on = 1;  // tightest valid duty cycle
    EXPECT_TRUE(c.check().is_ok());
  }
}

}  // namespace
}  // namespace awd::core
