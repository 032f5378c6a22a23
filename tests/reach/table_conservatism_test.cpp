// The table conservatism floor: on each small seed plant, the precomputed
// table's deadlines over the shared probe cloud (testkit/reach_probes.hpp)
// must keep at least its recorded tightness relative to the exact box walk,
// less kRatioTolerance.  A collapse means the table turned uselessly
// conservative even though it is still sound.  bench_reach_backends times
// the same setup for the table lookup's cost ceiling.
#include <gtest/gtest.h>

#include "testkit/reach_probes.hpp"

namespace awd::reach {
namespace {

struct ConservatismFloor {
  const char* plant;
  double recorded_ratio;  ///< table_conservatism() when the floor was set
};

constexpr ConservatismFloor kConservatismFloors[] = {
    {"aircraft_pitch", 0.6096590760923853},
    {"vehicle_turning", 0.8483112373737379},
    {"series_rlc", 0.7252470619658117},
    {"dc_motor", 0.8760044642857168},
};

/// Largest absolute ratio drop the floor allows.
constexpr double kRatioTolerance = 0.10;

TEST(TableConservatism, RatioWithinToleranceOfRecordedValue) {
  for (const ConservatismFloor& f : kConservatismFloors) {
    const double ratio = testkit::table_conservatism(testkit::make_table_probe_setup(f.plant));
    EXPECT_GE(ratio, f.recorded_ratio - kRatioTolerance) << f.plant;
    EXPECT_LE(ratio, 1.0) << f.plant;  // a sound table never outlasts the walk
  }
}

}  // namespace
}  // namespace awd::reach
