// Tests for the Monte-Carlo experiment runners (Table 2 / Fig. 7 workloads,
// scaled down for test time).
#include "core/experiment.hpp"

#include <gtest/gtest.h>

#include "sim/noise.hpp"

namespace awd::core {
namespace {

TEST(Experiment, CellResultCountsAreConsistent) {
  const SimulatorCase scase = simulator_case("vehicle_turning");
  MetricsOptions opts;
  opts.warmup = 100;
  const CellResult cell = run_cell({.scase = scase,
                                    .attack = AttackKind::kBias,
                                    .runs = 10,
                                    .base_seed = 2022,
                                    .metrics = opts})
                              .value();
  EXPECT_EQ(cell.runs, 10u);
  EXPECT_EQ(cell.simulator, "vehicle_turning");
  EXPECT_LE(cell.fp_adaptive, 10u);
  EXPECT_LE(cell.dm_fixed, 10u);
  // FN implies DM by definition.
  EXPECT_LE(cell.fn_adaptive, cell.dm_adaptive);
  EXPECT_LE(cell.fn_fixed, cell.dm_fixed);
}

TEST(Experiment, DeterministicForFixedBaseSeed) {
  const SimulatorCase scase = simulator_case("series_rlc");
  MetricsOptions opts;
  opts.warmup = 100;
  const ExperimentSpec spec{.scase = scase,
                            .attack = AttackKind::kBias,
                            .runs = 5,
                            .base_seed = 7,
                            .metrics = opts};
  const CellResult a = run_cell(spec).value();
  const CellResult b = run_cell(spec).value();
  EXPECT_EQ(a.fp_adaptive, b.fp_adaptive);
  EXPECT_EQ(a.dm_fixed, b.dm_fixed);
  EXPECT_EQ(a.mean_delay_adaptive, b.mean_delay_adaptive);
}

TEST(Experiment, HeadlineOrderingOnBiasCell) {
  // The paper's Table 2 structure: adaptive has (weakly) more FP
  // experiments and (strictly) fewer deadline misses than fixed.
  const SimulatorCase scase = simulator_case("aircraft_pitch");
  MetricsOptions opts;
  opts.warmup = 100;
  opts.fp_threshold = 0.01;
  const CellResult cell = run_cell({.scase = scase,
                                    .attack = AttackKind::kBias,
                                    .runs = 20,
                                    .base_seed = 2022,
                                    .metrics = opts})
                              .value();
  EXPECT_GE(cell.fp_adaptive, cell.fp_fixed);
  EXPECT_LT(cell.dm_adaptive, cell.dm_fixed);
  EXPECT_EQ(cell.dm_adaptive, 0u);
}

TEST(Experiment, WindowSweepShapesMatchFig7) {
  SimulatorCase scase = simulator_case("aircraft_pitch");
  scase.attack_duration = 15;  // §6.1.2
  MetricsOptions opts;
  opts.warmup = 100;
  const auto points = fixed_window_sweep({.scase = scase,
                                          .attack = AttackKind::kBias,
                                          .windows = {0, 40, 100},
                                          .runs = 30,
                                          .base_seed = 2022,
                                          .metrics = opts})
                          .value();
  ASSERT_EQ(points.size(), 3u);
  // FP experiments decrease with window size; FN experiments increase.
  EXPECT_GT(points[0].fp_experiments, points[1].fp_experiments);
  EXPECT_GE(points[1].fp_experiments, points[2].fp_experiments);
  EXPECT_LE(points[0].fn_experiments, points[1].fn_experiments);
  EXPECT_LT(points[1].fn_experiments, points[2].fn_experiments);
  // At w=0 every run alarms constantly: all FP, no FN.
  EXPECT_EQ(points[0].fp_experiments, 30u);
  EXPECT_EQ(points[0].fn_experiments, 0u);
}

TEST(Experiment, PinnedTable2CellForFixedSeed) {
  // Regression pin guarding the parallel rewrite: one Table-2 cell
  // (aircraft pitch x bias, 10 runs, base seed 2022, Table-2 metric
  // options) must keep producing exactly these counts and delay means.
  // The values were recorded from the serial implementation; the ordered
  // reduction keeps them bit-identical for every thread count.
  const SimulatorCase scase = simulator_case("aircraft_pitch");
  MetricsOptions opts;
  opts.warmup = 100;
  opts.fp_threshold = 0.01;
  const CellResult cell = run_cell({.scase = scase,
                                    .attack = AttackKind::kBias,
                                    .runs = 10,
                                    .base_seed = 2022,
                                    .metrics = opts,
                                    .threads = 1})
                              .value();
  EXPECT_EQ(cell.fp_adaptive, 6u);
  EXPECT_EQ(cell.fp_fixed, 0u);
  EXPECT_EQ(cell.dm_adaptive, 0u);
  EXPECT_EQ(cell.dm_fixed, 7u);
  EXPECT_EQ(cell.fn_adaptive, 0u);
  EXPECT_EQ(cell.fn_fixed, 3u);
  EXPECT_DOUBLE_EQ(cell.mean_delay_adaptive, 0.0);
  EXPECT_DOUBLE_EQ(cell.mean_delay_fixed, 276.0 / 7.0);
}

TEST(Experiment, RunCellBitIdenticalAcrossThreadCounts) {
  // The parallel rewrite's core contract: counts AND floating-point delay
  // means are bit-identical for every thread count.
  const SimulatorCase scase = simulator_case("vehicle_turning");
  MetricsOptions opts;
  opts.warmup = 100;
  opts.fp_threshold = 0.01;
  ExperimentSpec spec{.scase = scase,
                      .attack = AttackKind::kBias,
                      .runs = 12,
                      .base_seed = 2022,
                      .metrics = opts,
                      .threads = 1};
  const CellResult serial = run_cell(spec).value();
  spec.threads = 8;
  const CellResult threaded = run_cell(spec).value();
  EXPECT_EQ(serial, threaded);
  spec.threads = 3;
  const CellResult odd = run_cell(spec).value();
  EXPECT_EQ(serial, odd);
}

TEST(Experiment, SweepBitIdenticalAcrossThreadCounts) {
  SimulatorCase scase = simulator_case("series_rlc");
  scase.attack_duration = 15;
  MetricsOptions opts;
  opts.warmup = 100;
  SweepSpec spec{.scase = scase,
                 .attack = AttackKind::kBias,
                 .windows = {0, 5, 20, 40, 100},
                 .runs = 12,
                 .base_seed = 9,
                 .metrics = opts,
                 .threads = 1};
  const auto serial = fixed_window_sweep(spec).value();
  spec.threads = 8;
  const auto threaded = fixed_window_sweep(spec).value();
  EXPECT_EQ(serial, threaded);
}

TEST(Experiment, SpecCheckRejectsDegenerateInputs) {
  const SimulatorCase scase = simulator_case("vehicle_turning");
  const auto no_runs =
      run_cell({.scase = scase, .attack = AttackKind::kBias, .runs = 0});
  EXPECT_FALSE(no_runs.is_ok());
  EXPECT_EQ(no_runs.status().code(), StatusCode::kInvalidInput);

  SimulatorCase bad = scase;
  bad.tau = Vec{};  // dimension mismatch → SimulatorCase::check failure
  EXPECT_FALSE(run_cell({.scase = bad, .attack = AttackKind::kBias}).is_ok());

  const auto no_windows = fixed_window_sweep(
      {.scase = scase, .attack = AttackKind::kBias, .windows = {}, .runs = 5});
  EXPECT_FALSE(no_windows.is_ok());
  EXPECT_EQ(no_windows.status().code(), StatusCode::kInvalidInput);
}

TEST(Experiment, ReduceCellMatchesManualAccumulation) {
  // The pure reduction helper shared by the serial and parallel paths:
  // counts come from the flags, delay means divide by the *detected* run
  // count only, and run order fixes the floating-point sum.
  const SimulatorCase scase = simulator_case("vehicle_turning");
  std::vector<CellRunOutcome> outcomes(3);
  outcomes[0].adaptive.fp_experiment = true;
  outcomes[0].adaptive.detection_delay = 4;
  outcomes[0].fixed.deadline_miss = true;
  outcomes[0].fixed.false_negative = true;
  outcomes[1].adaptive.detection_delay = 7;
  outcomes[1].fixed.detection_delay = 9;
  outcomes[2].adaptive.deadline_miss = true;

  const CellResult cell = reduce_cell(scase, AttackKind::kDelay, outcomes);
  EXPECT_EQ(cell.simulator, "vehicle_turning");
  EXPECT_EQ(cell.attack, AttackKind::kDelay);
  EXPECT_EQ(cell.runs, 3u);
  EXPECT_EQ(cell.fp_adaptive, 1u);
  EXPECT_EQ(cell.fp_fixed, 0u);
  EXPECT_EQ(cell.dm_adaptive, 1u);
  EXPECT_EQ(cell.dm_fixed, 1u);
  EXPECT_EQ(cell.fn_fixed, 1u);
  EXPECT_DOUBLE_EQ(cell.mean_delay_adaptive, (4.0 + 7.0) / 2.0);
  EXPECT_DOUBLE_EQ(cell.mean_delay_fixed, 9.0);
  // No detected runs -> mean 0, not a division by zero.
  const CellResult empty = reduce_cell(scase, AttackKind::kBias, {});
  EXPECT_EQ(empty.runs, 0u);
  EXPECT_EQ(empty.mean_delay_adaptive, 0.0);
}

TEST(Experiment, SweepIsDeterministic) {
  SimulatorCase scase = simulator_case("vehicle_turning");
  scase.attack_duration = 15;
  const SweepSpec spec{.scase = scase,
                       .attack = AttackKind::kBias,
                       .windows = {0, 10},
                       .runs = 5,
                       .base_seed = 3};
  const auto a = fixed_window_sweep(spec).value();
  const auto b = fixed_window_sweep(spec).value();
  EXPECT_EQ(a[0].fp_experiments, b[0].fp_experiments);
  EXPECT_EQ(a[1].fn_experiments, b[1].fn_experiments);
}

TEST(Experiment, PinnedFixedWindowSweepForFixedSeed) {
  // Cross-commit pin of one Fig. 7 sweep (aircraft pitch x bias, 10 runs,
  // Fig. 7's scoring).  The thread-count tests compare two runs of the same
  // code; this one compares against values recorded from an earlier build.
  SimulatorCase scase = simulator_case("aircraft_pitch");
  scase.attack_duration = 15;
  MetricsOptions opts;
  opts.warmup = 100;
  const auto points = fixed_window_sweep({.scase = scase,
                                          .attack = AttackKind::kBias,
                                          .windows = {0, 2, 4, 60, 100},
                                          .runs = 10,
                                          .base_seed = 2022,
                                          .metrics = opts,
                                          .threads = 3})
                          .value();
  const std::vector<WindowSweepPoint> expected = {
      {.window = 0, .fp_experiments = 10, .fn_experiments = 0},
      {.window = 2, .fp_experiments = 10, .fn_experiments = 0},
      {.window = 4, .fp_experiments = 9, .fn_experiments = 0},
      {.window = 60, .fp_experiments = 0, .fn_experiments = 1},
      {.window = 100, .fp_experiments = 0, .fn_experiments = 10},
  };
  EXPECT_EQ(points, expected);
}

TEST(Experiment, RunCellMatchesTraceScoredRunsAcrossAttacksAndThreads) {
  // run_cell against the trace-scored oracle: run_cell_once per seed (a
  // whole Trace scored by compute_metrics), reduced by reduce_cell.  The
  // per-run seed and the post-attack guard default are run_cell's own.
  const SimulatorCase scase = simulator_case("aircraft_pitch");
  MetricsOptions opts;
  opts.warmup = 100;
  opts.fp_threshold = 0.01;
  MetricsOptions oracle_opts = opts;
  oracle_opts.post_attack_guard = scase.max_window;
  constexpr std::size_t kRuns = 6;
  constexpr std::uint64_t kBaseSeed = 2022;
  for (const AttackKind attack : {AttackKind::kBias, AttackKind::kDelay, AttackKind::kReplay,
                                  AttackKind::kStealthyRamp}) {
    std::vector<CellRunOutcome> outcomes;
    for (std::size_t r = 0; r < kRuns; ++r) {
      const std::uint64_t seed = sim::splitmix64(kBaseSeed + 0x51a3c0de00000000ULL + r);
      outcomes.push_back(run_cell_once(scase, attack, seed, oracle_opts));
    }
    const CellResult oracle = reduce_cell(scase, attack, outcomes);
    for (const std::size_t threads : {1u, 3u}) {
      const CellResult cell = run_cell({.scase = scase,
                                        .attack = attack,
                                        .runs = kRuns,
                                        .base_seed = kBaseSeed,
                                        .metrics = opts,
                                        .threads = threads})
                                  .value();
      EXPECT_EQ(cell, oracle) << to_string(attack) << " at " << threads << " threads";
    }
  }
}

}  // namespace
}  // namespace awd::core
