// The box deadline is exact (§3, Eq. 4/5).  On the six fixed plants — the
// five Table-1 plants and the Fig. 8 testbed — at init radius 0 and 0.05,
// every probe whose deadline t_d is below w_m has a worst-case witness
// (testkit/witness.hpp) that stays in S through t_d and leaves S at exactly
// t_d + 1, compared with no tolerance.  Probes are uniform over the plant's
// trusted-state domain: the safe set where it is bounded, a span around the
// operating point elsewhere.
#include <gtest/gtest.h>

#include <cstddef>
#include <memory>

#include "core/config.hpp"
#include "reach/backend.hpp"
#include "reach/deadline.hpp"
#include "testkit/rng.hpp"
#include "testkit/witness.hpp"

namespace awd::reach {
namespace {

constexpr const char* kPlants[] = {"aircraft_pitch", "vehicle_turning", "series_rlc",
                                   "dc_motor",       "quadrotor",       "testbed_car"};
constexpr int kProbes = 4000;

TEST(DeadlineWitness, BoxDeadlineIsExactOnEveryFixedPlant) {
  for (const char* plant : kPlants) {
    for (const double init_radius : {0.0, 0.05}) {
      BackendSpec spec = core::make_backend_spec(core::simulator_case(plant), init_radius, 0);
      spec.kind = BackendKind::kBox;
      const std::unique_ptr<Backend> backend = make_backend(spec).value();
      const auto& box = dynamic_cast<const BoxBackend&>(*backend);
      const Box& domain = spec.table.domain;

      testkit::PropRng rng(0xd0c5eedULL);
      int witnessed = 0;
      int inexact = 0;
      for (int k = 0; k < kProbes; ++k) {
        Vec x0(domain.dim());
        for (std::size_t i = 0; i < x0.size(); ++i) {
          x0[i] = rng.uniform(domain[i].lo, domain[i].hi);
        }
        const testkit::WitnessVerdict v = testkit::check_deadline_witness(box, x0);
        if (v.deadline < v.max_window) ++witnessed;
        if (!v.exact() && ++inexact <= 5) {
          ADD_FAILURE() << plant << " r=" << init_radius << " probe " << k << ": "
                        << v.describe();
        }
      }
      EXPECT_EQ(inexact, 0) << plant << " r=" << init_radius;
      // Every probe of a bounded plant resolves a deadline below w_m, so the
      // check is never vacuous.
      EXPECT_EQ(witnessed, kProbes) << plant << " r=" << init_radius;
    }
  }
}

}  // namespace
}  // namespace awd::reach
