// The detection-quality floor: on each small seed plant, the adaptive
// detector's ROC AUC under one fixed sweep must not fall more than
// kAucTolerance below its recorded value.  A detector change that cedes
// that much area to the attacker fails here however fast it runs.  The
// sweep must also be bit-identical at 1 and 3 threads: a nondeterministic
// AUC cannot be compared against a recorded one.
#include <gtest/gtest.h>

#include <cstddef>

#include "core/config.hpp"
#include "tune/roc.hpp"

namespace awd::tune {
namespace {

struct AucFloor {
  const char* plant;
  double recorded_auc;  ///< AUC of floor_options() when the floor was set
};

constexpr AucFloor kAucFloors[] = {
    {"aircraft_pitch", 0.9958217270194986},
    {"vehicle_turning", 0.9953574744661096},
    {"series_rlc", 0.9764827065923862},
    {"dc_motor", 0.9809511374187557},
};

/// Largest absolute AUC drop the floor allows.
constexpr double kAucTolerance = 0.02;

RocOptions floor_options(std::size_t threads) {
  RocOptions opts;
  opts.scales = {0.45, 0.7, 1.0, 1.4, 2.0};
  opts.far_trials = 6;
  opts.tpr_trials = 4;
  opts.threads = threads;
  return opts;
}

TEST(RocFloor, AucWithinToleranceOfRecordedValue) {
  for (const AucFloor& f : kAucFloors) {
    const core::SimulatorCase scase = core::simulator_case(f.plant);
    const RocCurve serial = roc_sweep(scase, floor_options(1)).value();
    const RocCurve parallel = roc_sweep(scase, floor_options(3)).value();

    ASSERT_EQ(serial.points.size(), parallel.points.size()) << f.plant;
    EXPECT_EQ(serial.auc, parallel.auc) << f.plant;  // bitwise
    for (std::size_t i = 0; i < serial.points.size(); ++i) {
      EXPECT_EQ(serial.points[i].far, parallel.points[i].far) << f.plant << " point " << i;
      EXPECT_EQ(serial.points[i].detected, parallel.points[i].detected)
          << f.plant << " point " << i;
    }
    EXPECT_GE(serial.auc, f.recorded_auc - kAucTolerance) << f.plant;
  }
}

}  // namespace
}  // namespace awd::tune
