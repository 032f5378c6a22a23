// The awd.hpp facade contract: every exported name is reachable as a plain
// `awd::` name, `awd::v1::` spells the same entity (v1 is inline), and the
// surface is wide enough to drive the pipeline end to end without touching
// an internal header (this TU includes only awd.hpp).
#include <gtest/gtest.h>

#include <type_traits>

#include "awd.hpp"

namespace {

// Inline-namespace versioning: the plain and the explicitly versioned names
// are the same types, not lookalikes.
static_assert(std::is_same_v<awd::DetectionSystem, awd::v1::DetectionSystem>);
static_assert(std::is_same_v<awd::StreamEngine, awd::v1::StreamEngine>);
static_assert(std::is_same_v<awd::ExperimentSpec, awd::v1::ExperimentSpec>);
static_assert(std::is_same_v<awd::Result<int>, awd::v1::Result<int>>);
static_assert(std::is_same_v<awd::Status, awd::v1::Status>);
static_assert(std::is_same_v<awd::Trace, awd::v1::Trace>);
static_assert(std::is_same_v<awd::Vec, awd::v1::Vec>);

// ...and they alias the internal definitions (the facade re-exports, it does
// not wrap).
static_assert(std::is_same_v<awd::DetectionSystem, awd::core::DetectionSystem>);
static_assert(std::is_same_v<awd::StreamEngine, awd::serve::StreamEngine>);
static_assert(std::is_same_v<awd::StepRecord, awd::sim::StepRecord>);
static_assert(std::is_same_v<awd::HealthState, awd::fault::HealthState>);

// The reachability backend family (DESIGN.md §17) rides the same contract.
static_assert(std::is_same_v<awd::Backend, awd::v1::Backend>);
static_assert(std::is_same_v<awd::BackendKind, awd::v1::BackendKind>);
static_assert(std::is_same_v<awd::BackendSpec, awd::v1::BackendSpec>);
static_assert(std::is_same_v<awd::DeadlineTable, awd::v1::DeadlineTable>);
static_assert(std::is_same_v<awd::Backend, awd::reach::Backend>);
static_assert(std::is_same_v<awd::BoxBackend, awd::reach::BoxBackend>);
static_assert(std::is_same_v<awd::TableBackend, awd::reach::TableBackend>);
static_assert(std::is_same_v<awd::DeadlineConfig, awd::reach::DeadlineConfig>);

TEST(Facade, DrivesThePipelineEndToEnd) {
  const awd::SimulatorCase scase = awd::simulator_case("dc_motor");
  ASSERT_TRUE(scase.check().is_ok());

  awd::Result<awd::DetectionSystem> system =
      awd::DetectionSystem::create(scase, awd::AttackKind::kBias, /*seed=*/1);
  ASSERT_TRUE(system.is_ok());
  const awd::Trace trace = std::move(system).value().run();

  const awd::RunMetrics metrics = awd::compute_metrics(
      trace, scase.attack_start, scase.attack_duration, awd::Strategy::kAdaptive);
  EXPECT_GT(metrics.deadline_at_onset, 0u);

  const awd::CellResult cell = awd::run_cell({.scase = scase,
                                              .attack = awd::AttackKind::kBias,
                                              .runs = 2,
                                              .base_seed = 1,
                                              .threads = 1})
                                   .value();
  EXPECT_EQ(cell.runs, 2u);
}

TEST(Facade, ReachBackendFamilyIsDrivable) {
  // Factory, precompute, codec — all through plain awd:: names.
  awd::SimulatorCase scase = awd::simulator_case("series_rlc");
  scase.reach_backend = awd::BackendKind::kTable;
  const awd::BackendSpec spec =
      awd::make_backend_spec(scase, /*init_radius=*/0.0, /*budget_steps=*/0);

  const auto backend = awd::make_backend(spec).value();
  EXPECT_EQ(backend->name(), "table");
  EXPECT_EQ(backend->fingerprint(), awd::spec_fingerprint(spec));

  const awd::DeadlineTable table = awd::build_table(spec).value();
  const auto bytes = awd::encode_table(table);
  ASSERT_TRUE(awd::decode_table(bytes).is_ok());
  EXPECT_TRUE(awd::make_table_backend(spec, table).is_ok());
}

TEST(Facade, Table1BankIsExported) {
  const auto cases = awd::table1_cases();
  ASSERT_EQ(cases.size(), 5u);
  for (const awd::SimulatorCase& scase : cases) {
    EXPECT_TRUE(scase.check().is_ok()) << scase.key;
  }
}

}  // namespace
