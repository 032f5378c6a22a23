// Cross-backend soundness differential (DESIGN.md §17): over every seed
// plant and the four representative attack kinds, states drawn from real
// attacked pipeline runs and from a seeded random cloud must satisfy the
// backend ordering the theory dictates —
//
//   * BoxBackend's cached walk is bit-identical to the uncached reach-box
//     recursion (the pre-refactor estimator's exact semantics);
//   * TableBackend never promises more time than the box walk anywhere in
//     its precomputed domain (each cell stores an inflated-walk lower
//     bound).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "core/config.hpp"
#include "core/detection_system.hpp"
#include "reach/backend.hpp"
#include "reach/deadline.hpp"
#include "reach/table.hpp"

namespace awd::reach {
namespace {

constexpr const char* kPlants[] = {"aircraft_pitch", "vehicle_turning", "series_rlc",
                                   "dc_motor"};
constexpr core::AttackKind kAttacks[] = {core::AttackKind::kBias,
                                         core::AttackKind::kReplay,
                                         core::AttackKind::kFreeze,
                                         core::AttackKind::kRamp};
constexpr int kSeedsPerAttack = 13;  // 4 attacks x 13 = 52 seeds per plant

struct BackendPair {
  std::unique_ptr<Backend> box;
  std::unique_ptr<Backend> table;
  Box domain = Box::unbounded(0);
};

BackendPair make_backends(const core::SimulatorCase& scase) {
  core::SimulatorCase tuned = scase;
  // Grid resolution chosen so cells^dim stays well under the table cap on
  // every seed plant.
  tuned.reach_table_cells = tuned.model.state_dim() <= 3 ? 8 : 4;

  BackendSpec spec = core::make_backend_spec(tuned, /*init_radius=*/0.0,
                                             /*budget_steps=*/0);
  BackendPair pair;
  pair.domain = spec.table.domain;

  spec.kind = BackendKind::kBox;
  pair.box = make_backend(spec).value();
  spec.kind = BackendKind::kTable;
  pair.table = make_backend(spec).value();
  return pair;
}

void check_probe(const BackendPair& t, const Vec& x, const char* plant,
                 const char* context) {
  const auto& box = dynamic_cast<const BoxBackend&>(*t.box);
  const std::size_t t_box = box.estimate(x);
  ASSERT_EQ(t_box, box.estimate_uncached(x))
      << plant << " " << context << ": cached box walk diverged from the recursion";
  if (t.domain.contains(x)) {
    const std::size_t t_tab = t.table->estimate(x);
    EXPECT_LE(t_tab, t_box) << plant << " " << context
                            << ": table deadline over-promises in-domain";
  }
}

TEST(BackendDifferential, SoundOverPlantsAttacksAndSeeds) {
  for (const char* plant : kPlants) {
    const core::SimulatorCase scase = core::simulator_case(plant);
    const BackendPair pair = make_backends(scase);
    const std::size_t n = scase.model.state_dim();

    // Real attacked pipelines: probe the estimate stream the deadline
    // estimator would actually be seeded from.
    std::uint64_t seed = 1;
    for (const core::AttackKind attack : kAttacks) {
      for (int s = 0; s < kSeedsPerAttack; ++s, ++seed) {
        core::DetectionSystem system(scase, attack, seed);
        const sim::Trace trace = system.run(80);
        for (std::size_t k = 4; k < trace.size(); k += 8) {
          SCOPED_TRACE(trace[k].t);
          check_probe(pair, trace[k].estimate, plant, "attacked run");
          if (::testing::Test::HasFatalFailure()) return;
        }
      }
    }

    // A seeded random cloud around the reference, wide enough to cross the
    // safe boundary for some draws.
    std::uint64_t rng = 0x9e3779b97f4a7c15ULL;
    auto next_unit = [&rng]() {  // xorshift into [-1, 1)
      rng ^= rng << 13;
      rng ^= rng >> 7;
      rng ^= rng << 17;
      return static_cast<double>(static_cast<std::int64_t>(rng >> 11)) / (1ULL << 52) -
             1.0;
    };
    for (int s = 0; s < 60; ++s) {
      Vec x = scase.reference;
      for (std::size_t i = 0; i < n; ++i) x[i] += 3.0 * next_unit();
      check_probe(pair, x, plant, "random cloud");
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(BackendDifferential, PipelineRunsBitIdenticalAcrossSharedBoxBackend) {
  // A DetectionSystem run with the default-built backend and one with an
  // explicitly shared BoxBackend of the same spec must agree bitwise — the
  // serving engine's per-family sharing rests on this.
  const core::SimulatorCase scase = core::simulator_case("dc_motor");
  core::DetectionSystem baseline(scase, core::AttackKind::kBias, 7);
  const sim::Trace expect = baseline.run(120);

  core::DetectionSystemOptions options;
  options.shared_deadline_estimator = baseline.estimator_handle();
  core::DetectionSystem shared(scase, core::AttackKind::kBias, 7, options);
  const sim::Trace got = shared.run(120);

  ASSERT_EQ(expect.size(), got.size());
  for (std::size_t k = 0; k < expect.size(); ++k) {
    ASSERT_EQ(expect[k].deadline, got[k].deadline) << k;
    ASSERT_EQ(expect[k].adaptive_alarm, got[k].adaptive_alarm) << k;
  }
}

}  // namespace
}  // namespace awd::reach
