// Unit tests for the LTI model types, discretization, and the model bank.
#include <gtest/gtest.h>

#include <cmath>
#include <ostream>
#include <stdexcept>

#include "linalg/expm.hpp"
#include "models/discretize.hpp"
#include "models/model_bank.hpp"

namespace awd::models {
namespace {

TEST(Lti, ContinuousValidation) {
  ContinuousLti sys;
  sys.A = Matrix(2, 3);
  sys.B = Matrix(2, 1);
  sys.name = "bad";
  EXPECT_THROW(sys.validate(), std::invalid_argument);

  sys.A = Matrix::identity(2);
  sys.B = Matrix(3, 1);  // wrong rows
  EXPECT_THROW(sys.validate(), std::invalid_argument);

  sys.B = Matrix(2, 0);  // no inputs
  EXPECT_THROW(sys.validate(), std::invalid_argument);

  sys.B = Matrix(2, 1);
  sys.state_names = {"only_one"};
  EXPECT_THROW(sys.validate(), std::invalid_argument);

  sys.state_names = {"a", "b"};
  EXPECT_NO_THROW(sys.validate());
}

TEST(Lti, DiscreteValidationChecksDt) {
  DiscreteLti sys;
  sys.A = Matrix::identity(1);
  sys.B = Matrix(1, 1);
  sys.dt = 0.0;
  EXPECT_THROW(sys.validate(), std::invalid_argument);
  sys.dt = 0.02;
  EXPECT_NO_THROW(sys.validate());
}

TEST(Lti, StepComputesAxPlusBu) {
  DiscreteLti sys;
  sys.A = Matrix{{0.5, 0.0}, {0.0, 2.0}};
  sys.B = Matrix{{1.0}, {0.0}};
  sys.dt = 0.1;
  const Vec next = sys.step(Vec{2.0, 3.0}, Vec{4.0});
  EXPECT_DOUBLE_EQ(next[0], 5.0);
  EXPECT_DOUBLE_EQ(next[1], 6.0);
}

TEST(Discretize, ZohScalarMatchesClosedForm) {
  // dx/dt = a x + b u: A_d = e^{a dt}, B_d = (e^{a dt} - 1) b / a.
  ContinuousLti sys;
  sys.A = Matrix{{-2.0}};
  sys.B = Matrix{{3.0}};
  sys.name = "scalar";
  const double dt = 0.1;
  const DiscreteLti d = discretize_zoh(sys, dt);
  EXPECT_NEAR(d.A(0, 0), std::exp(-0.2), 1e-13);
  EXPECT_NEAR(d.B(0, 0), (std::exp(-0.2) - 1.0) * 3.0 / -2.0, 1e-13);
}

TEST(Discretize, ZohDoubleIntegrator) {
  // x'' = u: A_d = [[1, dt],[0, 1]], B_d = [dt^2/2, dt].
  ContinuousLti sys;
  sys.A = Matrix{{0.0, 1.0}, {0.0, 0.0}};
  sys.B = Matrix{{0.0}, {1.0}};
  sys.name = "double_integrator";
  const DiscreteLti d = discretize_zoh(sys, 0.1);
  EXPECT_NEAR(d.A(0, 1), 0.1, 1e-14);
  EXPECT_NEAR(d.B(0, 0), 0.005, 1e-14);
  EXPECT_NEAR(d.B(1, 0), 0.1, 1e-14);
}

TEST(Discretize, EulerFirstOrderAgreement) {
  // For small dt, Euler and ZOH agree to O(dt^2).
  const ContinuousLti sys = aircraft_pitch();
  const double dt = 1e-4;
  const DiscreteLti zoh = discretize_zoh(sys, dt);
  const DiscreteLti euler = discretize_euler(sys, dt);
  EXPECT_LT((zoh.A - euler.A).max_abs(), 1e-6);
  EXPECT_LT((zoh.B - euler.B).max_abs(), 1e-8);
}

TEST(Discretize, InvalidDtThrows) {
  EXPECT_THROW((void)discretize_zoh(aircraft_pitch(), 0.0), std::invalid_argument);
  EXPECT_THROW((void)discretize_euler(aircraft_pitch(), -1.0), std::invalid_argument);
}

TEST(Discretize, PreservesMetadata) {
  const DiscreteLti d = discretize_zoh(series_rlc(), 0.02);
  EXPECT_EQ(d.name, "series_rlc");
  EXPECT_EQ(d.dt, 0.02);
  ASSERT_EQ(d.state_names.size(), 2u);
  EXPECT_EQ(d.state_names[0], "capacitor_voltage");
}

struct BankCase {
  const char* name;
  ContinuousLti (*factory)();
  std::size_t n;
  std::size_t m;
};

// ctest takes the printed parameter into the test's name; gtest's default
// dump of the struct holds the two pointers, which change with every build
// and run.
void PrintTo(const BankCase& bc, std::ostream* os) {
  *os << bc.name << " (n=" << bc.n << ", m=" << bc.m << ")";
}

class ModelBankTest : public ::testing::TestWithParam<BankCase> {};

TEST_P(ModelBankTest, ShapesAndValidation) {
  const BankCase& bc = GetParam();
  const ContinuousLti sys = bc.factory();
  EXPECT_NO_THROW(sys.validate());
  EXPECT_EQ(sys.state_dim(), bc.n);
  EXPECT_EQ(sys.input_dim(), bc.m);
  EXPECT_EQ(sys.state_names.size(), bc.n);
}

TEST_P(ModelBankTest, ZohDiscretizationIsStableToCompute) {
  const BankCase& bc = GetParam();
  const DiscreteLti d = discretize_zoh(bc.factory(), 0.02);
  EXPECT_NO_THROW(d.validate());
  // Every plant here is physical: the one-step map must be finite.
  EXPECT_TRUE(std::isfinite(d.A.max_abs()));
  EXPECT_TRUE(std::isfinite(d.B.max_abs()));
}

INSTANTIATE_TEST_SUITE_P(
    Bank, ModelBankTest,
    ::testing::Values(BankCase{"aircraft_pitch", aircraft_pitch, 3, 1},
                      BankCase{"vehicle_turning", vehicle_turning, 1, 1},
                      BankCase{"series_rlc", series_rlc, 2, 1},
                      BankCase{"dc_motor_position", dc_motor_position, 3, 1},
                      BankCase{"quadrotor", quadrotor, 12, 4}),
    [](const ::testing::TestParamInfo<BankCase>& info) { return info.param.name; });

TEST(ModelBank, TestbedCarMatchesPaperParameters) {
  const DiscreteLti car = testbed_car();
  EXPECT_NO_THROW(car.validate());
  EXPECT_DOUBLE_EQ(car.A(0, 0), 0.8435);
  EXPECT_DOUBLE_EQ(car.B(0, 0), 7.7919e-4);
  EXPECT_DOUBLE_EQ(car.dt, 0.05);  // 20 Hz
  EXPECT_DOUBLE_EQ(kTestbedCarC, 384.3402);
}

TEST(ModelBank, QuadrotorHoverStructure) {
  const ContinuousLti q = quadrotor();
  // Position kinematics.
  EXPECT_EQ(q.A(0, 6), 1.0);
  EXPECT_EQ(q.A(2, 8), 1.0);
  // Gravity tilt coupling: u̇ = -g θ, v̇ = +g φ.
  EXPECT_NEAR(q.A(6, 4), -9.81, 1e-12);
  EXPECT_NEAR(q.A(7, 3), 9.81, 1e-12);
  // Thrust acts only on ẇ.
  EXPECT_GT(q.B(8, 0), 0.0);
  EXPECT_EQ(q.B(8, 1), 0.0);
}

TEST(ModelBank, RlcEnergyDynamicsSigns) {
  const ContinuousLti rlc = series_rlc();
  EXPECT_GT(rlc.A(0, 1), 0.0);   // capacitor charges with positive current
  EXPECT_LT(rlc.A(1, 0), 0.0);   // capacitor voltage opposes current growth
  EXPECT_LT(rlc.A(1, 1), 0.0);   // resistance damps
}

}  // namespace
}  // namespace awd::models
