// Chaos suite: the detection pipeline under deterministic fault injection.
//
// Runs Table-2-style cells under scripted and seeded-random fault plans and
// asserts the graceful-degradation contract:
//   * no crash — every scenario runs to completion,
//   * no non-finite value in any emitted StepRecord field,
//   * bit-identical traces for identical (seed, fault plan),
//   * HealthMonitor reports the expected NOMINAL/DEGRADED/FAILSAFE
//     transitions for each fault shape,
//   * with an empty fault plan the trace — and therefore every Table-2
//     metric derived from it — is bit-identical to the default (unhardened
//     configuration) pipeline.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/ckpt.hpp"
#include "core/detection_system.hpp"
#include "core/metrics.hpp"
#include "fault/fault.hpp"
#include "fault/health.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "serve/forensics.hpp"
#include "serve/stream_engine.hpp"

namespace awd {
namespace {

using core::AttackKind;
using core::DetectionSystem;
using core::DetectionSystemOptions;
using fault::FaultKind;
using fault::FaultPlan;
using fault::HealthState;
using sim::StepRecord;
using sim::Trace;

// ------------------------------------------------------------------ helpers

void expect_all_finite(const StepRecord& rec, const std::string& context) {
  const linalg::Vec* fields[] = {&rec.true_state, &rec.measurement, &rec.estimate,
                                 &rec.predicted,  &rec.residual,    &rec.control,
                                 &rec.commanded};
  const char* names[] = {"true_state", "measurement", "estimate", "predicted",
                         "residual",   "control",     "commanded"};
  for (std::size_t i = 0; i < 7; ++i) {
    EXPECT_TRUE(fields[i]->is_finite())
        << context << ": non-finite " << names[i] << " at t=" << rec.t;
  }
}

bool records_identical(const StepRecord& a, const StepRecord& b) {
  return a.t == b.t && a.true_state == b.true_state && a.measurement == b.measurement &&
         a.estimate == b.estimate && a.predicted == b.predicted &&
         a.residual == b.residual && a.control == b.control &&
         a.commanded == b.commanded && a.attack_active == b.attack_active &&
         a.deadline == b.deadline && a.window == b.window &&
         a.adaptive_alarm == b.adaptive_alarm && a.fixed_alarm == b.fixed_alarm &&
         a.unsafe == b.unsafe && a.fault == b.fault &&
         a.sample_missing == b.sample_missing &&
         a.estimate_fallback == b.estimate_fallback &&
         a.residual_quarantined == b.residual_quarantined &&
         a.deadline_fallback == b.deadline_fallback && a.health == b.health;
}

void expect_traces_identical(const Trace& a, const Trace& b, const std::string& context) {
  ASSERT_EQ(a.size(), b.size()) << context;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_TRUE(records_identical(a[i], b[i])) << context << ": diverges at t=" << i;
  }
}

/// One chaos scenario: a plant/attack cell plus a fault plan.
struct Scenario {
  std::string name;
  std::string plant;
  AttackKind attack = AttackKind::kNone;
  FaultPlan plan;
  /// Highest health state the run must reach.
  HealthState expect_at_least = HealthState::kDegraded;
  /// Expect full recovery (NOMINAL) by the end of the run.
  bool expect_recovered = true;
};

std::vector<Scenario> chaos_scenarios() {
  std::vector<Scenario> scenarios;

  auto single = [](FaultKind kind, std::size_t t) {
    return FaultPlan{}.add({t, 1, kind});
  };
  auto burst = [](FaultKind kind, std::size_t t, std::size_t len) {
    return FaultPlan{}.add({t, len, kind});
  };

  // Scripted scenarios over three plants × the full fault taxonomy.
  scenarios.push_back({"single_dropout", "aircraft_pitch", AttackKind::kNone,
                       single(FaultKind::kDropout, 100)});
  scenarios.push_back({"burst_loss_failsafe", "aircraft_pitch", AttackKind::kNone,
                       burst(FaultKind::kDropout, 100, 8), HealthState::kFailsafe});
  scenarios.push_back({"nan_corruption", "vehicle_turning", AttackKind::kNone,
                       single(FaultKind::kCorruptNaN, 120)});
  scenarios.push_back({"nan_burst_failsafe", "vehicle_turning", AttackKind::kNone,
                       burst(FaultKind::kCorruptNaN, 120, 6), HealthState::kFailsafe});
  scenarios.push_back({"inf_corruption", "series_rlc", AttackKind::kNone,
                       single(FaultKind::kCorruptInf, 90)});
  scenarios.push_back({"stuck_sensor", "series_rlc", AttackKind::kNone,
                       burst(FaultKind::kStuckAtLast, 110, 4)});
  scenarios.push_back({"deadline_budget", "aircraft_pitch", AttackKind::kNone,
                       burst(FaultKind::kDeadlineBudget, 130, 3)});
  scenarios.push_back({"dropout_at_startup", "vehicle_turning", AttackKind::kNone,
                       single(FaultKind::kDropout, 0)});
  scenarios.push_back({"stuck_at_startup", "dc_motor", AttackKind::kNone,
                       burst(FaultKind::kStuckAtLast, 0, 3)});

  // Faults layered over an active sensor attack (the severe regime).
  scenarios.push_back({"nan_during_bias_attack", "aircraft_pitch", AttackKind::kBias,
                       burst(FaultKind::kCorruptNaN, 170, 3), HealthState::kDegraded,
                       false});
  scenarios.push_back({"burst_during_ramp_attack", "dc_motor", AttackKind::kRamp,
                       burst(FaultKind::kDropout, 180, 8), HealthState::kFailsafe, false});

  // Mixed scripted plan: every fault kind in one run.
  FaultPlan mixed;
  mixed.add({60, 2, FaultKind::kDropout})
      .add({80, 1, FaultKind::kCorruptNaN})
      .add({100, 1, FaultKind::kCorruptInf})
      .add({120, 3, FaultKind::kStuckAtLast})
      .add({140, 2, FaultKind::kDeadlineBudget});
  scenarios.push_back({"mixed_taxonomy", "series_rlc", AttackKind::kNone, mixed});

  // Seeded-random background plans at increasing severity.
  // Random plans may fault arbitrarily close to the end of the run, so
  // none of them asserts recovery.
  scenarios.push_back({"random_sparse", "aircraft_pitch", AttackKind::kNone,
                       FaultPlan::random(42, 300, {.fault_rate = 0.01}),
                       HealthState::kDegraded, false});
  scenarios.push_back({"random_moderate", "vehicle_turning", AttackKind::kFreeze,
                       FaultPlan::random(7, 300, {.fault_rate = 0.05}),
                       HealthState::kDegraded, false});
  scenarios.push_back({"random_severe", "dc_motor", AttackKind::kNone,
                       FaultPlan::random(99, 300, {.fault_rate = 0.25, .max_burst = 8}),
                       HealthState::kFailsafe, false});

  return scenarios;
}

Trace run_scenario(const Scenario& s, std::uint64_t seed, std::size_t steps = 300) {
  DetectionSystemOptions opts;
  opts.fault_plan = s.plan;
  DetectionSystem system(core::simulator_case(s.plant), s.attack, seed, opts);
  return system.run(steps);
}

// ---------------------------------------------------------------- the suite

TEST(Chaos, AtLeastTwelveScenariosAcrossThreePlants) {
  const auto scenarios = chaos_scenarios();
  EXPECT_GE(scenarios.size(), 12u);
  std::vector<std::string> plants;
  for (const auto& s : scenarios) {
    if (std::find(plants.begin(), plants.end(), s.plant) == plants.end()) {
      plants.push_back(s.plant);
    }
  }
  EXPECT_GE(plants.size(), 3u);
}

TEST(Chaos, AllScenariosCompleteWithFiniteRecords) {
  for (const auto& s : chaos_scenarios()) {
    SCOPED_TRACE(s.name);
    Trace trace;
    ASSERT_NO_THROW(trace = run_scenario(s, 1)) << s.name;
    ASSERT_EQ(trace.size(), 300u);
    for (const StepRecord& rec : trace) expect_all_finite(rec, s.name);
  }
}

TEST(Chaos, HealthReportsExpectedTransitions) {
  for (const auto& s : chaos_scenarios()) {
    SCOPED_TRACE(s.name);
    const Trace trace = run_scenario(s, 1);
    HealthState peak = HealthState::kNominal;
    for (const StepRecord& rec : trace) {
      if (rec.health > peak) peak = rec.health;
    }
    EXPECT_GE(peak, s.expect_at_least) << s.name;
    if (s.expect_recovered) {
      EXPECT_EQ(trace.back().health, HealthState::kNominal)
          << s.name << ": did not recover by the end of the run";
    }
  }
}

TEST(Chaos, HealthNeverSkipsDegradedOnTheWayUp) {
  // NOMINAL must never jump straight to FAILSAFE within one step, and every
  // recovery must pass through DEGRADED.
  for (const auto& s : chaos_scenarios()) {
    SCOPED_TRACE(s.name);
    const Trace trace = run_scenario(s, 3);
    HealthState prev = HealthState::kNominal;
    for (const StepRecord& rec : trace) {
      if (prev == HealthState::kNominal) {
        EXPECT_NE(rec.health, HealthState::kFailsafe) << s.name << " t=" << rec.t;
      }
      if (prev == HealthState::kFailsafe) {
        EXPECT_NE(rec.health, HealthState::kNominal) << s.name << " t=" << rec.t;
      }
      prev = rec.health;
    }
  }
}

TEST(Chaos, FaultCountersMatchThePlan) {
  // A scripted 8-step dropout burst must be counted exactly 8 times.
  Scenario s{"burst_count", "aircraft_pitch", AttackKind::kNone,
             FaultPlan{}.add({100, 8, FaultKind::kDropout})};
  DetectionSystemOptions opts;
  opts.fault_plan = s.plan;
  DetectionSystem system(core::simulator_case(s.plant), s.attack, 1, opts);
  (void)system.run(300);
  ASSERT_NE(system.faults(), nullptr);
  EXPECT_EQ(system.faults()->counters().count(FaultKind::kDropout), 8u);
  EXPECT_EQ(system.health().fault_count(FaultKind::kDropout), 8u);
  EXPECT_GE(system.health().degraded_steps(), 8u);

  // Injected deadline-budget faults must be attributed too: both in the
  // monitor's per-kind counter and on the step records themselves.
  DetectionSystemOptions dopts;
  dopts.fault_plan = FaultPlan{}.add({100, 3, FaultKind::kDeadlineBudget});
  DetectionSystem dsystem(core::simulator_case(s.plant), s.attack, 1, dopts);
  const Trace dtrace = dsystem.run(300);
  EXPECT_EQ(dsystem.health().fault_count(FaultKind::kDeadlineBudget), 3u);
  for (std::size_t t = 100; t < 103; ++t) {
    EXPECT_EQ(dtrace[t].fault, FaultKind::kDeadlineBudget) << t;
    EXPECT_TRUE(dtrace[t].deadline_fallback) << t;
  }
}

TEST(Chaos, IdenticalSeedAndPlanGiveBitIdenticalTraces) {
  for (const auto& s : chaos_scenarios()) {
    SCOPED_TRACE(s.name);
    const Trace a = run_scenario(s, 17);
    const Trace b = run_scenario(s, 17);
    expect_traces_identical(a, b, s.name);
  }
}

TEST(Chaos, DeterminismAcrossAllFivePlants) {
  // Same (seed, fault plan) ⇒ identical Trace across two independent
  // DetectionSystem runs, for every Table-1 plant.
  for (const char* plant : {"aircraft_pitch", "vehicle_turning", "series_rlc",
                            "dc_motor", "quadrotor"}) {
    SCOPED_TRACE(plant);
    const FaultPlan plan = FaultPlan::random(5, 250, {.fault_rate = 0.08});
    DetectionSystemOptions opts;
    opts.fault_plan = plan;
    DetectionSystem first(core::simulator_case(plant), AttackKind::kBias, 23, opts);
    DetectionSystem second(core::simulator_case(plant), AttackKind::kBias, 23, opts);
    expect_traces_identical(first.run(250), second.run(250), plant);
  }
}

TEST(Chaos, EmptyPlanIsBitIdenticalToDefaultPipeline) {
  // The hardening must be invisible when nothing is injected: an empty
  // FaultPlan produces the exact trace — hence the exact Table-2 metrics —
  // of a DetectionSystem constructed with default options.
  for (const char* plant : {"aircraft_pitch", "vehicle_turning", "series_rlc"}) {
    for (const AttackKind attack : {AttackKind::kNone, AttackKind::kBias}) {
      SCOPED_TRACE(plant);
      DetectionSystem baseline(core::simulator_case(plant), attack, 11);
      DetectionSystemOptions opts;
      opts.fault_plan = FaultPlan{};  // explicit empty plan
      DetectionSystem hardened(core::simulator_case(plant), attack, 11, opts);
      const Trace base_trace = baseline.run(300);
      const Trace hard_trace = hardened.run(300);
      expect_traces_identical(base_trace, hard_trace, plant);

      // Spot-check the derived Table-2 metrics agree bit-for-bit too.
      if (attack == AttackKind::kBias) {
        const core::SimulatorCase scase = core::simulator_case(plant);
        const core::RunMetrics a =
            core::compute_metrics(base_trace, scase.attack_start, scase.attack_duration,
                                  core::Strategy::kAdaptive);
        const core::RunMetrics b =
            core::compute_metrics(hard_trace, scase.attack_start, scase.attack_duration,
                                  core::Strategy::kAdaptive);
        EXPECT_EQ(a.fp_rate, b.fp_rate);
        EXPECT_EQ(a.detection_delay, b.detection_delay);
        EXPECT_EQ(a.deadline_miss, b.deadline_miss);
        EXPECT_EQ(a.false_negative, b.false_negative);
      }
      // No fault plan: the injector is never constructed and health stays
      // NOMINAL throughout.
      EXPECT_EQ(hardened.faults(), nullptr);
      for (const StepRecord& rec : hard_trace) {
        EXPECT_EQ(rec.health, HealthState::kNominal);
        EXPECT_EQ(rec.fault, FaultKind::kNone);
      }
    }
  }
}

TEST(Chaos, RealDeadlineBudgetTriggersDecayFallback) {
  // A budget too small to resolve the search forces the decay fallback on
  // every step once seeds exist: the deadline must decay monotonically to
  // the floor of 1 and never read 0 or above w_m.
  DetectionSystemOptions opts;
  opts.deadline_budget = 2;  // far below the w_m = 40 the search may need
  DetectionSystem system(core::simulator_case("aircraft_pitch"), AttackKind::kNone, 1,
                         opts);
  const Trace trace = system.run(200);
  bool saw_fallback = false;
  for (const StepRecord& rec : trace) {
    expect_all_finite(rec, "real_budget");
    if (rec.deadline_fallback) {
      saw_fallback = true;
      EXPECT_GE(rec.deadline, 1u);
      EXPECT_LE(rec.deadline, 40u);
    }
  }
  EXPECT_TRUE(saw_fallback);
  EXPECT_EQ(trace.back().deadline, 1u);  // decayed to the most-alert floor
}

TEST(Chaos, DropoutHoldsLastValueAndRecoversCleanly) {
  // During a burst the estimate must freeze at the last good value; the
  // loop keeps controlling and the stream stays contiguous afterwards.
  FaultPlan plan;
  plan.add({50, 5, FaultKind::kDropout});
  DetectionSystemOptions opts;
  opts.fault_plan = plan;
  DetectionSystem system(core::simulator_case("vehicle_turning"), AttackKind::kNone, 9,
                         opts);
  const Trace trace = system.run(120);
  const linalg::Vec held = trace[49].estimate;
  for (std::size_t t = 50; t < 55; ++t) {
    EXPECT_TRUE(trace[t].sample_missing) << t;
    EXPECT_TRUE(trace[t].estimate_fallback) << t;
    EXPECT_EQ(trace[t].estimate, held) << t;
  }
  EXPECT_FALSE(trace[55].sample_missing);
  EXPECT_FALSE(trace[55].estimate_fallback);
}

TEST(Chaos, CorruptionNeverReachesEmittedMeasurement) {
  FaultPlan plan;
  plan.add({40, 3, FaultKind::kCorruptNaN});
  plan.add({60, 3, FaultKind::kCorruptInf});
  DetectionSystemOptions opts;
  opts.fault_plan = plan;
  DetectionSystem system(core::simulator_case("series_rlc"), AttackKind::kNone, 5, opts);
  const Trace trace = system.run(100);
  for (const StepRecord& rec : trace) {
    expect_all_finite(rec, "corruption");
    if (rec.t >= 40 && rec.t < 43) {
      EXPECT_EQ(rec.fault, FaultKind::kCorruptNaN);
    }
    if (rec.t >= 60 && rec.t < 63) {
      EXPECT_EQ(rec.fault, FaultKind::kCorruptInf);
    }
  }
}

// ------------------------------------------------- checkpoint/recovery chaos

namespace {

/// Bitwise equality of two StreamResults (the engine-level analogue of
/// expect_traces_identical).
void expect_stream_results_identical(const serve::StreamResult& a,
                                     const serve::StreamResult& b,
                                     const std::string& context) {
  EXPECT_EQ(a.id, b.id) << context;
  EXPECT_EQ(a.status.code(), b.status.code()) << context;
  EXPECT_EQ(a.steps, b.steps) << context;
  EXPECT_EQ(a.final_health, b.final_health) << context;
  EXPECT_EQ(a.adaptive_evaluations, b.adaptive_evaluations) << context;
  const core::RunMetrics* got[] = {&a.adaptive, &a.fixed};
  const core::RunMetrics* want[] = {&b.adaptive, &b.fixed};
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(got[i]->fp_rate, want[i]->fp_rate) << context;
    EXPECT_EQ(got[i]->first_alarm_after_onset, want[i]->first_alarm_after_onset)
        << context;
    EXPECT_EQ(got[i]->detection_delay, want[i]->detection_delay) << context;
    EXPECT_EQ(got[i]->deadline_miss, want[i]->deadline_miss) << context;
    EXPECT_EQ(got[i]->false_negative, want[i]->false_negative) << context;
    EXPECT_EQ(got[i]->first_unsafe, want[i]->first_unsafe) << context;
  }
}

}  // namespace

// Crash mid-run, recover from the last durable snapshot.  The engine takes
// periodic snapshots to disk (write_file's tmp+rename keeps each one atomic);
// the process "dies" mid-attack with the newest on-disk snapshot corrupted by
// a simulated torn disk — recovery must reject it with a typed error, fall
// back to the previous generation, and still finish bit-identically to the
// uninterrupted run.
TEST(Chaos, CrashRecoveryFromLastDurableSnapshot) {
  const std::string newest = ::testing::TempDir() + "awd_chaos_ckpt.1.snap";
  const std::string older = ::testing::TempDir() + "awd_chaos_ckpt.0.snap";

  auto submit_pair = [](serve::StreamEngine& e) {
    std::vector<serve::StreamId> ids;
    FaultPlan plan;
    plan.add({160, 4, FaultKind::kDropout});  // faults inside the attack window
    serve::StreamSpec bias{.scase = core::simulator_case("aircraft_pitch"),
                           .attack = AttackKind::kBias,
                           .seed = 21};
    bias.options.fault_plan = plan;
    serve::StreamSpec freeze{.scase = core::simulator_case("series_rlc"),
                             .attack = AttackKind::kFreeze,
                             .seed = 22};
    ids.push_back(e.submit(bias).value());
    ids.push_back(e.submit(freeze).value());
    return ids;
  };

  // Uninterrupted reference.
  serve::StreamEngine reference({.threads = 1});
  const std::vector<serve::StreamId> ids = submit_pair(reference);
  reference.run_to_completion();

  // The doomed process: snapshot every 40 steps, die at t=175 (attack and
  // fault plan both active).
  {
    serve::StreamEngine doomed({.threads = 1});
    ASSERT_EQ(submit_pair(doomed), ids);
    for (int t = 1; t <= 175; ++t) {
      doomed.step_all();
      if (t % 40 == 0) {
        std::remove(older.c_str());
        std::rename(newest.c_str(), older.c_str());
        ASSERT_TRUE(
            core::ckpt::write_file(newest, doomed.checkpoint().value()).is_ok());
      }
    }
    // No clean shutdown: the engine object simply goes away.
  }

  // Simulated torn disk: the newest snapshot loses its tail.
  {
    core::Result<std::vector<std::uint8_t>> bytes = core::ckpt::read_file(newest);
    ASSERT_TRUE(bytes.is_ok());
    std::vector<std::uint8_t> torn = bytes.value();
    torn.resize(torn.size() / 2);
    ASSERT_TRUE(core::ckpt::write_file(newest, torn).is_ok());
  }

  // Recovery: newest generation rejected typed, older generation restores.
  serve::StreamEngine recovered({.threads = 2});
  bool restored = false;
  for (const std::string& path : {newest, older}) {
    core::Result<std::vector<std::uint8_t>> bytes = core::ckpt::read_file(path);
    if (!bytes.is_ok()) continue;
    const core::Status status = recovered.restore(bytes.value());
    if (status.is_ok()) {
      restored = true;
      break;
    }
    EXPECT_EQ(status.code(), core::StatusCode::kDataLoss) << path;
  }
  ASSERT_TRUE(restored);

  recovered.run_to_completion();
  for (serve::StreamId id : ids) {
    expect_stream_results_identical(recovered.drain(id).value(),
                                    reference.drain(id).value(),
                                    "recovered stream " + std::to_string(id));
  }
  std::remove(newest.c_str());
  std::remove(older.c_str());
}

// Checkpoint taken mid-fault-burst: the restored stream must come back in
// DEGRADED health (the monitor's streaks and counters travel in the
// snapshot), then recover to NOMINAL exactly as the uninterrupted run does.
TEST(Chaos, RestoreUnderActiveFaultPlanResumesDegraded) {
  FaultPlan plan;
  plan.add({100, 3, FaultKind::kDropout});
  serve::StreamSpec spec{.scase = core::simulator_case("vehicle_turning"),
                         .attack = AttackKind::kNone,
                         .seed = 31};
  spec.options.fault_plan = plan;

  serve::StreamEngine reference({.threads = 1});
  const serve::StreamId ref_id = reference.submit(spec).value();
  reference.run_to_completion();

  serve::StreamEngine engine({.threads = 1});
  const serve::StreamId id = engine.submit(spec).value();
  ASSERT_EQ(id, ref_id);
  for (int t = 0; t < 102; ++t) engine.step_all();  // inside the burst
  ASSERT_EQ(engine.status(id).value().health, HealthState::kDegraded);
  const std::vector<std::uint8_t> snap = engine.checkpoint().value();

  serve::StreamEngine restored({.threads = 1});
  ASSERT_TRUE(restored.restore(snap).is_ok());
  EXPECT_EQ(restored.status(id).value().health, HealthState::kDegraded)
      << "health state must survive the snapshot";
  EXPECT_EQ(restored.status(id).value().steps_done, 102u);

  restored.run_to_completion();
  const serve::StreamResult got = restored.drain(id).value();
  EXPECT_EQ(got.final_health, HealthState::kNominal)
      << "restored run must still recover after the burst ends";
  expect_stream_results_identical(got, reference.drain(id).value(),
                                  "restore under active fault plan");
}

// Elastic resharding while an attack is in progress and a fault plan is
// firing: rebalance() must be invisible in every drained result.
TEST(Chaos, RebalanceMidAttackIsInvisible) {
  auto submit_cells = [](serve::StreamEngine& e) {
    std::vector<serve::StreamId> ids;
    const AttackKind attacks[] = {AttackKind::kBias, AttackKind::kReplay,
                                  AttackKind::kFreeze};
    int i = 0;
    for (const char* plant : {"aircraft_pitch", "vehicle_turning", "series_rlc"}) {
      serve::StreamSpec spec{.scase = core::simulator_case(plant),
                             .attack = attacks[i++],
                             .seed = 41};
      spec.options.fault_plan = FaultPlan::random(13, 400, {.fault_rate = 0.02});
      ids.push_back(e.submit(spec).value());
    }
    return ids;
  };

  serve::StreamEngine reference({.threads = 2});
  const std::vector<serve::StreamId> ids = submit_cells(reference);
  reference.run_to_completion();

  serve::StreamEngine engine({.threads = 1});
  ASSERT_EQ(submit_cells(engine), ids);
  for (int t = 0; t < 170; ++t) engine.step_all();  // attack begins at 150
  ASSERT_TRUE(engine.rebalance(3).is_ok());  // reshard mid-attack
  engine.run_to_completion();

  for (serve::StreamId id : ids) {
    expect_stream_results_identical(engine.drain(id).value(),
                                    reference.drain(id).value(),
                                    "rebalance mid-attack stream " +
                                        std::to_string(id));
  }
}

// The crash-path body run inside the death-test child: arm the failure
// flush, serve an attacked stream past its alarm, then die mid-serve.
[[noreturn]] void crash_mid_serve(const std::string& dir) {
  obs::set_enabled(true);
  obs::install_failure_flush(dir);
  serve::StreamEngine engine(
      {.threads = 1, .flight_recorder_depth = 128, .forensics_dir = dir});
  serve::StreamSpec spec{.scase = core::simulator_case("aircraft_pitch"),
                         .attack = AttackKind::kBias,
                         .seed = 3};
  if (!engine.submit(spec).is_ok()) std::abort();
  for (int t = 0; t < 160; ++t) engine.step_all();  // past attack onset
  std::terminate();  // simulated crash mid-serve
}

// The crash path end to end: a process that dies mid-serve (std::terminate
// with install_failure_flush armed) must leave a readable postmortem behind
// — a flushed events.jsonl carrying the crash-flush marker, and .awdfr
// flight-recorder dumps that decode and replay in the surviving process.
TEST(Chaos, CrashFlushLeavesReadableForensics) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // CI points AWD_TEST_FORENSICS_DIR into the build tree so the postmortem
  // artifacts (.awdfr dumps, events.jsonl) can be uploaded when a chaos-tier
  // run fails; locally the dump lands in the system temp directory.
  const char* artifact_dir = std::getenv("AWD_TEST_FORENSICS_DIR");
  const std::filesystem::path dir =
      artifact_dir != nullptr && artifact_dir[0] != '\0'
          ? std::filesystem::path(artifact_dir) / "crash_flush"
          : std::filesystem::temp_directory_path() / "awd_chaos_crash_flush";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  EXPECT_DEATH(crash_mid_serve(dir.string()), "");

  // The child is dead; its artifacts must still tell the story.
  ASSERT_TRUE(std::filesystem::exists(dir / "events.jsonl"))
      << "failure flush did not write the event log";
  std::ifstream events_file(dir / "events.jsonl");
  std::stringstream events;
  events << events_file.rdbuf();
  EXPECT_NE(events.str().find("\"event\": \"crash_flush\""), std::string::npos);
  EXPECT_NE(events.str().find("\"event\": \"alarm\""), std::string::npos);

  std::size_t verified = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".awdfr") continue;
    const core::Result<std::vector<std::uint8_t>> bytes =
        core::ckpt::read_file(entry.path().string());
    ASSERT_TRUE(bytes.is_ok()) << entry.path();
    const core::Result<serve::ForensicsDump> dump = serve::decode_dump(bytes.value());
    ASSERT_TRUE(dump.is_ok()) << entry.path() << ": " << dump.status().message();
    const core::Result<serve::ReplayReport> replayed = serve::replay_dump(dump.value());
    ASSERT_TRUE(replayed.is_ok()) << entry.path();
    EXPECT_TRUE(replayed.value().verified())
        << entry.path() << ": " << replayed.value().mismatch;
    ++verified;
  }
  EXPECT_GE(verified, 1u) << "no decodable .awdfr dump survived the crash";
  // Keep the artifacts when CI asked for a stable directory (the upload
  // step collects them on failure); clean up the temp-dir fallback.
  if (artifact_dir == nullptr || artifact_dir[0] == '\0') {
    std::filesystem::remove_all(dir);
  }
}

}  // namespace
}  // namespace awd
