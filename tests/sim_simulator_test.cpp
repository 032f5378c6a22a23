// Unit tests for the closed-loop simulator.
#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "detect/logger.hpp"
#include "sim/pid.hpp"

namespace awd::sim {
namespace {

models::DiscreteLti scalar_model() {
  models::DiscreteLti m;
  m.A = linalg::Matrix{{0.9}};
  m.B = linalg::Matrix{{0.5}};
  m.dt = 0.1;
  m.name = "scalar";
  return m;
}

Simulator make_sim(SimulatorOptions opts,
                   std::shared_ptr<const attack::Attack> atk =
                       std::make_shared<attack::NoAttack>(),
                   double eps = 0.0) {
  Plant plant(scalar_model(), reach::Box::from_bounds(Vec{-5}, Vec{5}), eps, opts.x0);
  auto pid = std::make_unique<PidController>(PidGains{1.0, 0.5, 0.0},
                                             std::vector<std::size_t>{0},
                                             linalg::Matrix{{1.0}}, 0.1);
  return Simulator(std::move(plant), std::move(pid), std::move(atk), std::move(opts));
}

SimulatorOptions base_opts() {
  SimulatorOptions o;
  o.x0 = Vec{0.0};
  o.reference = Vec{1.0};
  o.sensor_noise = Vec{0.0};
  o.seed = 1;
  return o;
}

TEST(Simulator, FirstStepResidualIsZero) {
  Simulator sim = make_sim(base_opts());
  const StepRecord rec = sim.step();
  EXPECT_EQ(rec.t, 0u);
  EXPECT_EQ(rec.residual[0], 0.0);
  EXPECT_EQ(rec.predicted[0], rec.estimate[0]);
}

TEST(Simulator, NoiseFreeResidualStaysZero) {
  Simulator sim = make_sim(base_opts());
  for (int i = 0; i < 50; ++i) {
    const StepRecord rec = sim.step();
    EXPECT_NEAR(rec.residual[0], 0.0, 1e-12) << "step " << rec.t;
  }
}

TEST(Simulator, ClosedLoopTracksReference) {
  Simulator sim = make_sim(base_opts());
  const Trace trace = sim.run(300);
  EXPECT_NEAR(trace.back().true_state[0], 1.0, 1e-2);
}

TEST(Simulator, ResidualEqualsPredictionError) {
  SimulatorOptions o = base_opts();
  o.sensor_noise = Vec{0.01};
  Simulator sim = make_sim(o, std::make_shared<attack::NoAttack>(), 0.02);
  StepRecord prev = sim.step();
  for (int i = 0; i < 30; ++i) {
    const StepRecord rec = sim.step();
    const double expected =
        std::abs(0.9 * prev.estimate[0] + 0.5 * prev.control[0] - rec.estimate[0]);
    EXPECT_NEAR(rec.residual[0], expected, 1e-12);
    prev = rec;
  }
}

TEST(Simulator, RecordPredictionMatchesDataLoggerBitForBit) {
  // The record path and the Data Logger each compute x̃ = A x̄ + B u through
  // the model and z = |x̃ - x̄| in their own loop; both must give the same
  // bits, since records are what traces and dumps show for the logger.
  SimulatorOptions o = base_opts();
  o.sensor_noise = Vec{0.01};
  Simulator sim = make_sim(o, std::make_shared<attack::NoAttack>(), 0.02);
  detect::DataLogger log(scalar_model(), 8);
  for (std::size_t t = 0; t < 40; ++t) {
    const StepRecord rec = sim.step();
    const detect::LogEntry& e = log.log(t, rec.estimate, rec.control);
    EXPECT_EQ(rec.predicted, e.predicted) << "step " << t;
    EXPECT_EQ(rec.residual, e.residual) << "step " << t;
  }
}

TEST(Simulator, BiasAttackShiftsEstimateNotTruth) {
  auto attack = std::make_shared<attack::BiasAttack>(attack::AttackWindow{5, 100},
                                                     Vec{0.7});
  Simulator sim = make_sim(base_opts(), attack);
  for (int i = 0; i < 5; ++i) (void)sim.step();
  const StepRecord rec = sim.step();
  EXPECT_TRUE(rec.attack_active);
  EXPECT_NEAR(rec.estimate[0] - rec.true_state[0], 0.7, 1e-12);
  // Residual spikes by the bias at onset.
  EXPECT_NEAR(rec.residual[0], 0.7, 1e-12);
}

TEST(Simulator, SameSeedReproducesExactly) {
  SimulatorOptions o = base_opts();
  o.sensor_noise = Vec{0.02};
  Simulator a = make_sim(o, std::make_shared<attack::NoAttack>(), 0.05);
  Simulator b = make_sim(o, std::make_shared<attack::NoAttack>(), 0.05);
  for (int i = 0; i < 50; ++i) {
    const StepRecord ra = a.step();
    const StepRecord rb = b.step();
    EXPECT_EQ(ra.true_state[0], rb.true_state[0]);
    EXPECT_EQ(ra.estimate[0], rb.estimate[0]);
  }
}

TEST(Simulator, CommandedVersusAppliedPrediction) {
  // Force saturation: reference far away so the PI controller commands > 5.
  SimulatorOptions o = base_opts();
  o.reference = Vec{100.0};
  o.predict_with_commanded = false;
  Simulator applied = make_sim(o);
  o.predict_with_commanded = true;
  Simulator commanded = make_sim(o);

  double max_res_applied = 0.0, max_res_commanded = 0.0;
  for (int i = 0; i < 20; ++i) {
    max_res_applied = std::max(max_res_applied, applied.step().residual[0]);
    max_res_commanded = std::max(max_res_commanded, commanded.step().residual[0]);
  }
  // Applied-input prediction is exact (no noise); commanded-input prediction
  // sees the saturation gap as residual.
  EXPECT_NEAR(max_res_applied, 0.0, 1e-12);
  EXPECT_GT(max_res_commanded, 0.1);
}

TEST(Simulator, ReferenceScheduleSwitchesSetpoint) {
  SimulatorOptions o = base_opts();
  o.reference_schedule = {{10, Vec{2.0}}};
  Simulator sim = make_sim(o);
  const Trace trace = sim.run(400);
  EXPECT_NEAR(trace.back().true_state[0], 2.0, 2e-2);
}

TEST(Simulator, ReferenceSinusoidMovesPlant) {
  SimulatorOptions o = base_opts();
  o.reference_sinusoids = {{0, 0.5, 40.0}};
  Simulator sim = make_sim(o);
  const Trace trace = sim.run(400);
  double lo = 1e9, hi = -1e9;
  for (std::size_t t = 200; t < trace.size(); ++t) {
    lo = std::min(lo, trace[t].true_state[0]);
    hi = std::max(hi, trace[t].true_state[0]);
  }
  EXPECT_GT(hi - lo, 0.4);  // the plant actually follows the oscillation
}

TEST(Simulator, Validation) {
  SimulatorOptions o = base_opts();
  o.x0 = Vec{0.0, 0.0};
  EXPECT_THROW(make_sim(o), std::invalid_argument);

  o = base_opts();
  o.reference_schedule = {{5, Vec{1.0, 2.0}}};
  EXPECT_THROW(make_sim(o), std::invalid_argument);

  o = base_opts();
  o.reference_schedule = {{10, Vec{1.0}}, {5, Vec{2.0}}};  // unsorted
  EXPECT_THROW(make_sim(o), std::invalid_argument);

  o = base_opts();
  o.reference_sinusoids = {{3, 0.1, 10.0}};  // dim out of range
  EXPECT_THROW(make_sim(o), std::invalid_argument);

  o = base_opts();
  o.reference_sinusoids = {{0, 0.1, 0.0}};  // bad period
  EXPECT_THROW(make_sim(o), std::invalid_argument);
}

TEST(Simulator, RunProducesContiguousTrace) {
  Simulator sim = make_sim(base_opts());
  const Trace trace = sim.run(25);
  ASSERT_EQ(trace.size(), 25u);
  for (std::size_t i = 0; i < trace.size(); ++i) EXPECT_EQ(trace[i].t, i);
  EXPECT_EQ(sim.now(), 25u);
}

}  // namespace
}  // namespace awd::sim
