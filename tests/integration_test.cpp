// Cross-module integration tests: run the full pipeline over every plant x
// attack combination and check the structural invariants that individual
// unit tests cannot see together.
#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <tuple>

#include "core/detection_system.hpp"
#include "core/metrics.hpp"

namespace awd::core {

// Prints an attack by name in test names and failure messages. Without it
// gtest dumps the enum's bytes; kept out of the unnamed namespace so that
// argument-dependent lookup finds it.
static void PrintTo(AttackKind kind, std::ostream* os) { *os << to_string(kind); }

namespace {

// The plant key is a std::string, not a const char*: gtest prints a pointer
// with its address, and ctest takes that text into the test's name, which
// would then change with every build and run.
using IntegrationParam = std::tuple<std::string, AttackKind>;

class PipelineInvariants : public ::testing::TestWithParam<IntegrationParam> {};

TEST_P(PipelineInvariants, HoldThroughoutARun) {
  const auto& [key, attack] = GetParam();
  const SimulatorCase scase = simulator_case(key);
  DetectionSystem system(scase, attack, 1234);
  const sim::Trace trace = system.run(250);

  for (std::size_t t = 0; t < trace.size(); ++t) {
    const auto& r = trace[t];
    // Time is contiguous.
    ASSERT_EQ(r.t, t);
    // The adaptive window tracks the deadline, clamped to [0, w_m].
    EXPECT_LE(r.window, scase.max_window);
    EXPECT_LE(r.window, r.deadline);
    // The deadline never exceeds the search cap.
    EXPECT_LE(r.deadline, scase.max_window);
    // Attack activity matches the configured window.
    const auto atk = scase.make_attack(attack);
    EXPECT_EQ(r.attack_active, atk->active(t));
    // Residuals are elementwise non-negative by construction.
    for (std::size_t d = 0; d < r.residual.size(); ++d) {
      EXPECT_GE(r.residual[d], 0.0);
    }
    // Applied control respects the actuator range.
    EXPECT_TRUE(scase.u_range.contains(r.control));
    // The commanded input may exceed the range; the applied one is its clamp.
    EXPECT_EQ(r.control, scase.u_range.clamp(r.commanded));
  }

  // The logger retains exactly the sliding window the protocol needs.
  EXPECT_EQ(system.logger().latest(), trace.size() - 1);
  EXPECT_GE(system.logger().size(), scase.max_window + 1);
}

std::string param_name(const ::testing::TestParamInfo<IntegrationParam>& info) {
  return std::get<0>(info.param) + "_" + std::string(to_string(std::get<1>(info.param)));
}

INSTANTIATE_TEST_SUITE_P(
    AllPlantsAllAttacks, PipelineInvariants,
    ::testing::Combine(::testing::Values("aircraft_pitch", "vehicle_turning",
                                         "series_rlc", "dc_motor", "quadrotor",
                                         "testbed_car"),
                       ::testing::Values(AttackKind::kNone, AttackKind::kBias,
                                         AttackKind::kDelay, AttackKind::kReplay,
                                         AttackKind::kFreeze)),
    param_name);

TEST(Integration, CleanRunsStayMostlySafeWithModerateFp) {
  // Without an attack there is nothing to detect.  Most plants stay inside
  // the safe set; the vehicle-turning case deliberately operates so close
  // to the boundary (weave peaks at 1.85 of a 2.0 bound, ±0.075/step
  // disturbance) that brief excursions are part of its physics — so the
  // invariant is "rare", not "never".
  for (const auto& scase : table1_cases()) {
    DetectionSystem system(scase, AttackKind::kNone, 77);
    const sim::Trace trace = system.run();
    std::size_t unsafe_steps = 0;
    for (const auto& r : trace) {
      if (r.unsafe) ++unsafe_steps;
    }
    EXPECT_LT(static_cast<double>(unsafe_steps) / static_cast<double>(trace.size()), 0.1)
        << scase.key;
    const double fp =
        false_positive_rate(trace, trace.size(), trace.size(), Strategy::kAdaptive, 100);
    EXPECT_LT(fp, 0.25) << scase.key;
  }
}

TEST(Integration, AttackedRunsGoUnsafeOnlyAfterOnsetWhenCleanRunIsSafe) {
  for (const auto& scase : table1_cases()) {
    // Same seed with and without the attack: if the clean realization never
    // leaves the safe set, any unsafe excursion in the attacked run is the
    // attack's doing and must come after the onset.
    DetectionSystem clean(scase, AttackKind::kNone, 31);
    if (clean.run().first_unsafe().has_value()) continue;  // noise-dominated plant
    DetectionSystem attacked(scase, AttackKind::kBias, 31);
    const auto unsafe = attacked.run().first_unsafe();
    if (unsafe) {
      EXPECT_GE(*unsafe, scase.attack_start) << scase.key;
    }
  }
}

TEST(Integration, AdaptiveEvaluationsBoundedByProtocol) {
  // Per step: 1 current test + at most (w_p - w_c) <= w_m complementary
  // sweeps, so the total is bounded by steps * (w_m + 1).
  const SimulatorCase scase = simulator_case("vehicle_turning");
  DetectionSystem system(scase, AttackKind::kBias, 5);
  const std::size_t steps = 200;
  (void)system.run(steps);
  EXPECT_GE(system.adaptive_evaluations(), steps);
  EXPECT_LE(system.adaptive_evaluations(), steps * (scase.max_window + 1));
}

}  // namespace
}  // namespace awd::core
