// StreamEngine differential tests: the batched multi-stream engine must be
// bit-identical, stream for stream, to a standalone DetectionSystem run —
// across plants, attacks, seeds, shard counts, estimator sharing, and fault
// plans.  Plus the admission-control / drain state machine.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "awd.hpp"

namespace {

using namespace awd;

/// Exact (bitwise for the doubles) equality of two RunMetrics.
void expect_metrics_equal(const RunMetrics& got, const RunMetrics& want,
                          const std::string& what) {
  EXPECT_EQ(got.fp_rate, want.fp_rate) << what;
  EXPECT_EQ(got.first_alarm_after_onset, want.first_alarm_after_onset) << what;
  EXPECT_EQ(got.detection_delay, want.detection_delay) << what;
  EXPECT_EQ(got.deadline_at_onset, want.deadline_at_onset) << what;
  EXPECT_EQ(got.fp_experiment, want.fp_experiment) << what;
  EXPECT_EQ(got.deadline_miss, want.deadline_miss) << what;
  EXPECT_EQ(got.false_negative, want.false_negative) << what;
  EXPECT_EQ(got.first_unsafe, want.first_unsafe) << what;
}

/// The engine's guard policy (mirrors run_cell): an unset post_attack_guard
/// defaults to the case's maximum window.
MetricsOptions guarded(const SimulatorCase& scase) {
  MetricsOptions options;
  options.post_attack_guard = scase.max_window;
  return options;
}

// The ISSUE's acceptance differential: >= 4 plants x 50 seeds, every drained
// stream's metrics (both strategies) bitwise equal to the standalone
// DetectionSystem path (run_cell_once), with attacks varied per seed and
// streams flowing through the bounded queue of a small sharded engine.
TEST(StreamEngineDifferential, FourPlantsFiftySeedsBitIdentical) {
  const char* kPlants[] = {"aircraft_pitch", "vehicle_turning", "series_rlc", "dc_motor"};
  const AttackKind kAttacks[] = {AttackKind::kBias, AttackKind::kDelay,
                                 AttackKind::kReplay, AttackKind::kFreeze};

  serve::StreamEngine engine({.threads = 4, .max_streams = 32, .queue_capacity = 1024});
  struct Expected {
    serve::StreamId id;
    CellRunOutcome reference;
    std::string what;
  };
  std::vector<Expected> expected;

  for (const char* key : kPlants) {
    const SimulatorCase scase = simulator_case(key);
    for (std::uint64_t seed = 1; seed <= 50; ++seed) {
      const AttackKind attack = kAttacks[seed % 4];
      Result<serve::StreamId> id =
          engine.submit({.scase = scase, .attack = attack, .seed = seed});
      ASSERT_TRUE(id.is_ok()) << id.status().message();
      expected.push_back({id.value(),
                          run_cell_once(scase, attack, seed, guarded(scase)),
                          std::string(key) + " seed " + std::to_string(seed)});
    }
  }

  engine.run_to_completion();
  const serve::EngineSnapshot snap = engine.snapshot();
  EXPECT_EQ(snap.streams_admitted, expected.size());
  EXPECT_EQ(snap.streams_finished, expected.size());
  EXPECT_EQ(snap.running, 0u);
  EXPECT_EQ(snap.queued, 0u);

  for (const Expected& e : expected) {
    Result<serve::StreamResult> result = engine.drain(e.id);
    ASSERT_TRUE(result.is_ok()) << e.what;
    ASSERT_TRUE(result.value().status.is_ok()) << e.what;
    expect_metrics_equal(result.value().adaptive, e.reference.adaptive,
                         e.what + " (adaptive)");
    expect_metrics_equal(result.value().fixed, e.reference.fixed, e.what + " (fixed)");
  }
}

// Step-by-step differential: driving the engine one step_all() at a time,
// the per-stream status snapshot must match the standalone system's record
// at every step — deadline, window, both alarms.
TEST(StreamEngineDifferential, PerStepSnapshotMatchesStandalone) {
  const SimulatorCase scase = simulator_case("vehicle_turning");
  DetectionSystem standalone(scase, AttackKind::kBias, /*seed=*/7);

  serve::StreamEngine engine({.threads = 1});
  Result<serve::StreamId> id =
      engine.submit({.scase = scase, .attack = AttackKind::kBias, .seed = 7});
  ASSERT_TRUE(id.is_ok());

  for (std::size_t t = 0; t < scase.steps; ++t) {
    ASSERT_EQ(engine.step_all(), 1u) << "t=" << t;
    const StepRecord rec = standalone.step();
    Result<serve::StreamStatus> status = engine.status(id.value());
    ASSERT_TRUE(status.is_ok()) << "t=" << t;
    EXPECT_EQ(status.value().steps_done, t + 1);
    EXPECT_EQ(status.value().deadline, rec.deadline) << "t=" << t;
    EXPECT_EQ(status.value().window, rec.window) << "t=" << t;
    EXPECT_EQ(status.value().adaptive_alarm, rec.adaptive_alarm) << "t=" << t;
    EXPECT_EQ(status.value().fixed_alarm, rec.fixed_alarm) << "t=" << t;
  }
  EXPECT_EQ(engine.step_all(), 0u);  // finished streams take no more steps
  EXPECT_EQ(engine.status(id.value()).value().state, serve::StreamState::kFinished);
}

// A finished stream's status carries its progress and final health only;
// the last step's detection outputs are reported for running streams, and
// a finished stream's scores come from drain()'s StreamResult.
TEST(StreamEngineStatus, FinishedStreamReportsStepsAndFinalHealth) {
  const SimulatorCase scase = simulator_case("dc_motor");
  serve::StreamEngine engine({.threads = 1});
  Result<serve::StreamId> id =
      engine.submit({.scase = scase, .attack = AttackKind::kNone, .seed = 7});
  ASSERT_TRUE(id.is_ok());
  for (std::size_t t = 0; t + 1 < scase.steps; ++t) engine.step_all();
  const serve::StreamStatus running = engine.status(id.value()).value();
  ASSERT_EQ(running.state, serve::StreamState::kRunning);
  EXPECT_GT(running.deadline, 0u);
  EXPECT_GT(running.window, 0u);

  ASSERT_EQ(engine.step_all(), 1u);
  const serve::StreamStatus finished = engine.status(id.value()).value();
  EXPECT_EQ(finished.state, serve::StreamState::kFinished);
  EXPECT_EQ(finished.steps_done, scase.steps);
  EXPECT_EQ(finished.steps_total, scase.steps);
  EXPECT_EQ(finished.deadline, 0u);
  EXPECT_EQ(finished.window, 0u);
  EXPECT_FALSE(finished.adaptive_alarm);
  EXPECT_FALSE(finished.fixed_alarm);
  Result<serve::StreamResult> result = engine.drain(id.value());
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(finished.health, result.value().final_health);
  EXPECT_EQ(result.value().steps, scase.steps);
}

// Results must not depend on the shard/thread layout.
TEST(StreamEngineDifferential, ShardCountInvariant) {
  const SimulatorCase scase = simulator_case("dc_motor");
  std::vector<serve::StreamResult> per_layout;
  for (std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
    serve::StreamEngine engine({.threads = threads});
    Result<serve::StreamId> id =
        engine.submit({.scase = scase, .attack = AttackKind::kReplay, .seed = 11});
    ASSERT_TRUE(id.is_ok());
    engine.run_to_completion();
    per_layout.push_back(engine.drain(id.value()).value());
  }
  expect_metrics_equal(per_layout[1].adaptive, per_layout[0].adaptive, "1 vs 3 shards");
  expect_metrics_equal(per_layout[1].fixed, per_layout[0].fixed, "1 vs 3 shards");
  EXPECT_EQ(per_layout[1].adaptive_evaluations, per_layout[0].adaptive_evaluations);
}

// Sharing the deadline estimator across a plant family must not change any
// result relative to per-stream construction.
TEST(StreamEngineDifferential, SharedEstimatorBitIdentical) {
  const SimulatorCase scase = simulator_case("series_rlc");
  std::vector<serve::StreamResult> per_mode;
  for (bool share : {false, true}) {
    serve::StreamEngine engine(
        {.threads = 2, .share_deadline_estimators = share});
    Result<serve::StreamId> id =
        engine.submit({.scase = scase, .attack = AttackKind::kBias, .seed = 3});
    ASSERT_TRUE(id.is_ok());
    engine.run_to_completion();
    per_mode.push_back(engine.drain(id.value()).value());
  }
  expect_metrics_equal(per_mode[1].adaptive, per_mode[0].adaptive, "shared estimator");
  expect_metrics_equal(per_mode[1].fixed, per_mode[0].fixed, "shared estimator");
}

// A stream carrying a fault plan must degrade exactly like the standalone
// pipeline under the same plan (same metrics, same final health state).
TEST(StreamEngineDifferential, FaultPlanStreamsMatchStandalone) {
  const SimulatorCase scase = simulator_case("aircraft_pitch");
  DetectionSystemOptions options;
  options.fault_plan.add({.start = 120, .duration = 8, .kind = fault::FaultKind::kDropout})
      .add({.start = 200, .duration = 3, .kind = fault::FaultKind::kCorruptNaN});

  DetectionSystem standalone(scase, AttackKind::kBias, /*seed=*/5, options);
  StreamingMetrics reference(scase.attack_start, scase.attack_duration, guarded(scase));
  StepRecord last{};
  for (std::size_t t = 0; t < scase.steps; ++t) {
    last = standalone.step();
    reference.observe(last);
  }

  serve::StreamEngine engine({.threads = 2});
  Result<serve::StreamId> id = engine.submit(
      {.scase = scase, .attack = AttackKind::kBias, .seed = 5, .options = options});
  ASSERT_TRUE(id.is_ok());
  engine.run_to_completion();
  const serve::StreamResult result = engine.drain(id.value()).value();

  expect_metrics_equal(result.adaptive, reference.finish(Strategy::kAdaptive), "adaptive");
  expect_metrics_equal(result.fixed, reference.finish(Strategy::kFixed), "fixed");
  EXPECT_EQ(result.final_health, last.health);
}

// --- Admission control and the drain state machine. -----------------------

TEST(StreamEngineAdmission, BackpressureWhenRunningAndQueueFull) {
  const SimulatorCase scase = simulator_case("dc_motor");
  serve::StreamEngine engine({.threads = 1, .max_streams = 2, .queue_capacity = 1});
  const StreamSpec spec{.scase = scase, .attack = AttackKind::kBias, .seed = 1};

  ASSERT_TRUE(engine.submit(spec).is_ok());  // running slot 1
  ASSERT_TRUE(engine.submit(spec).is_ok());  // running slot 2
  ASSERT_TRUE(engine.submit(spec).is_ok());  // queued
  Result<serve::StreamId> rejected = engine.submit(spec);
  ASSERT_FALSE(rejected.is_ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kBudgetExceeded);

  const serve::EngineSnapshot snap = engine.snapshot();
  EXPECT_EQ(snap.running, 2u);
  EXPECT_EQ(snap.queued, 1u);
  EXPECT_EQ(snap.streams_rejected, 1u);

  // Capacity frees up once streams finish: the queued stream is admitted and
  // every accepted stream completes.
  engine.run_to_completion();
  EXPECT_EQ(engine.snapshot().streams_finished, 3u);
}

TEST(StreamEngineAdmission, InvalidSpecsRejectedUpFront) {
  SimulatorCase scase = simulator_case("dc_motor");
  serve::StreamEngine engine({.threads = 1});

  SimulatorCase broken = scase;
  broken.tau = Vec{};  // dimension mismatch: fails SimulatorCase::check()
  EXPECT_EQ(engine.submit({.scase = broken, .attack = AttackKind::kBias, .seed = 1})
                .status()
                .code(),
            StatusCode::kInvalidInput);

  // Attack onset after the (shortened) run is rejected, not silently run.
  EXPECT_EQ(engine.submit({.scase = scase,
                           .attack = AttackKind::kBias,
                           .seed = 1,
                           .steps = scase.attack_start})
                .status()
                .code(),
            StatusCode::kInvalidInput);
  EXPECT_EQ(engine.snapshot().streams_admitted, 0u);
}

TEST(StreamEngineAdmission, DrainStateMachine) {
  const SimulatorCase scase = simulator_case("dc_motor");
  serve::StreamEngine engine({.threads = 1, .max_streams = 1, .queue_capacity = 4});
  const StreamSpec spec{.scase = scase, .attack = AttackKind::kNone, .seed = 9};

  EXPECT_EQ(engine.drain(42).status().code(), StatusCode::kOutOfRange);

  const serve::StreamId running = engine.submit(spec).value();
  const serve::StreamId queued = engine.submit(spec).value();
  engine.step_all();  // both in flight now; neither finished
  EXPECT_EQ(engine.drain(running).status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(engine.drain(queued).status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(engine.status(running).value().state, serve::StreamState::kRunning);
  EXPECT_EQ(engine.status(queued).value().state, serve::StreamState::kQueued);

  engine.run_to_completion();
  EXPECT_TRUE(engine.drain(running).is_ok());
  // A drained stream is gone; draining again is an unknown id.
  EXPECT_EQ(engine.drain(running).status().code(), StatusCode::kOutOfRange);
  EXPECT_TRUE(engine.drain(queued).is_ok());
}

}  // namespace
