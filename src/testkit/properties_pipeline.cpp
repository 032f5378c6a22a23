// properties_pipeline.cpp — oracles for the fully wired DetectionSystem and
// the Monte-Carlo experiment engine (§6): adaptive-vs-fixed degeneracy when
// the deadline is pinned, serial-vs-parallel bit-identity, the §6.1.2
// false-positive budget on calibrated attack-free runs, and bitwise replay
// determinism.
#include <cstddef>
#include <sstream>
#include <string>

#include "core/calibration.hpp"
#include "core/ckpt.hpp"
#include "core/detection_system.hpp"
#include "core/experiment.hpp"
#include "core/metrics.hpp"
#include "testkit/properties.hpp"

namespace awd::testkit::props {

namespace {

/// Cap a scenario's run length at `max_steps`, re-fitting the attack window
/// (and a replay attack's recorded segment, which must end before the
/// attack starts) inside the shortened run.
void cap_steps(Scenario& sc, std::size_t max_steps) {
  sc.scase.steps = std::min(sc.scase.steps, max_steps);
  if (sc.scase.attack_start + sc.scase.attack_duration > sc.scase.steps) {
    sc.scase.attack_start = std::min(sc.scase.attack_start, sc.scase.steps / 2);
    sc.scase.attack_duration =
        std::min(sc.scase.attack_duration, sc.scase.steps - sc.scase.attack_start);
  }
  if (sc.attack != core::AttackKind::kNone && sc.scase.attack_start > 0) {
    sc.scase.replay_record_start =
        std::min(sc.scase.replay_record_start, sc.scase.attack_start - 1);
  }
}

/// Bitwise comparison of the detection-relevant fields of two step records.
bool records_equal(const sim::StepRecord& a, const sim::StepRecord& b) {
  return a.t == b.t && a.true_state == b.true_state && a.estimate == b.estimate &&
         a.residual == b.residual && a.control == b.control &&
         a.deadline == b.deadline && a.window == b.window &&
         a.adaptive_alarm == b.adaptive_alarm && a.fixed_alarm == b.fixed_alarm &&
         a.attack_active == b.attack_active && a.unsafe == b.unsafe;
}

}  // namespace

PropertyResult adaptive_equals_fixed_when_pinned(std::uint64_t seed,
                                                 const GenLimits& limits) {
  PropRng rng(seed);
  ScenarioOptions opt;
  opt.allow_budget = false;  // a budget fallback would decay the window
  Scenario sc = generate_scenario(rng, limits, opt);
  // Unbounded safe set: the reach box can never escape, the deadline pins
  // at w_m, and the adaptive detector must degenerate to the fixed baseline
  // running at window w_m — step for step, with zero complementary sweeps.
  sc.scase.safe_set = reach::Box::unbounded(sc.scase.model.state_dim());

  core::DetectionSystemOptions options;
  options.fixed_window = sc.scase.max_window;
  core::DetectionSystem system(sc.scase, sc.attack, sc.sim_seed, options);
  const std::size_t steps = std::min<std::size_t>(sc.scase.steps, 160);
  for (std::size_t t = 0; t < steps; ++t) {
    const sim::StepRecord rec = system.step();
    if (rec.deadline != sc.scase.max_window || rec.window != sc.scase.max_window) {
      return PropertyResult::fail(
          "deadline/window not pinned at w_m=" + std::to_string(sc.scase.max_window) +
          " at t=" + std::to_string(t) + " (deadline " + std::to_string(rec.deadline) +
          ", window " + std::to_string(rec.window) + "); " + sc.describe());
    }
    if (rec.adaptive_alarm != rec.fixed_alarm) {
      return PropertyResult::fail(
          "adaptive and pinned fixed baseline disagreed at t=" + std::to_string(t) +
          " (adaptive " + std::to_string(rec.adaptive_alarm) + ", fixed " +
          std::to_string(rec.fixed_alarm) + "); " + sc.describe());
    }
  }
  if (system.adaptive_evaluations() != steps) {
    return PropertyResult::fail(
        "expected exactly one window evaluation per step (no sweeps), got " +
        std::to_string(system.adaptive_evaluations()) + " over " + std::to_string(steps) +
        " steps; " + sc.describe());
  }
  return PropertyResult::pass();
}

PropertyResult serial_parallel_cell_identical(std::uint64_t seed, const GenLimits& limits) {
  PropRng rng(seed);
  Scenario sc = generate_scenario(rng, limits, {});
  cap_steps(sc, 120);
  const std::size_t runs = rng.range(3, 6);
  const std::uint64_t base_seed = rng.fork(0xce11);
  const core::MetricsOptions metrics;

  core::ExperimentSpec spec{.scase = sc.scase,
                            .attack = sc.attack,
                            .runs = runs,
                            .base_seed = base_seed,
                            .metrics = metrics,
                            .threads = 1};
  const core::CellResult serial = core::run_cell(spec).value();
  spec.threads = 3;
  const core::CellResult parallel = core::run_cell(spec).value();
  if (!(serial == parallel)) {
    std::ostringstream os;
    os.precision(17);
    os << "run_cell diverged between 1 and 3 threads (fp " << serial.fp_adaptive << "/"
       << serial.fp_fixed << " vs " << parallel.fp_adaptive << "/" << parallel.fp_fixed
       << ", dm " << serial.dm_adaptive << "/" << serial.dm_fixed << " vs "
       << parallel.dm_adaptive << "/" << parallel.dm_fixed << ", delay "
       << serial.mean_delay_adaptive << " vs " << parallel.mean_delay_adaptive << "); "
       << sc.describe();
    return PropertyResult::fail(os.str());
  }
  return PropertyResult::pass();
}

PropertyResult attack_free_fp_budget(std::uint64_t seed, const GenLimits& limits) {
  PropRng rng(seed);
  // Calibration-friendly regime: nominal noise/eps, no attack, no budget.
  ScenarioOptions opt;
  opt.noise_scale_lo = 0.5;
  opt.noise_scale_hi = 1.0;
  opt.eps_scale_lo = 0.5;
  opt.eps_scale_hi = 1.0;
  opt.allow_budget = false;
  GenLimits l = limits;
  l.allow_attack = false;
  Scenario sc = generate_scenario(rng, l, opt);

  // §4.3: pick τ from the clean residual distribution of this very plant
  // (the generated τ scale is irrelevant here — the paper's 10% budget is a
  // statement about calibrated thresholds).
  core::ThresholdCalibrationOptions cal;
  cal.runs = 4;
  cal.warmup = std::min<std::size_t>(sc.scase.max_window + 1, sc.scase.steps / 4);
  cal.quantile = 0.995;
  cal.margin = 1.2;
  Vec tau = core::calibrate_threshold(sc.scase, rng.fork(0xca1), cal);
  for (std::size_t i = 0; i < tau.size(); ++i) {
    if (!(tau[i] > 0.0)) tau[i] = 1e-12;  // keep a degenerate dimension valid
  }
  sc.scase.tau = tau;

  core::DetectionSystem system(sc.scase, core::AttackKind::kNone, sc.sim_seed, {});
  const sim::Trace trace = system.run();
  const std::size_t warmup = cal.warmup;
  const double fp_adaptive = core::false_positive_rate(
      trace, trace.size(), trace.size(), core::Strategy::kAdaptive, warmup);
  const double fp_fixed = core::false_positive_rate(
      trace, trace.size(), trace.size(), core::Strategy::kFixed, warmup);
  if (fp_adaptive > 0.1 || fp_fixed > 0.1) {
    std::ostringstream os;
    os << "attack-free FP budget exceeded: adaptive " << fp_adaptive << ", fixed "
       << fp_fixed << " (budget 0.1, calibrated tau); " << sc.describe();
    return PropertyResult::fail(os.str());
  }
  return PropertyResult::pass();
}

PropertyResult replay_determinism(std::uint64_t seed, const GenLimits& limits) {
  PropRng rng(seed);
  Scenario sc = generate_scenario(rng, limits, {});
  cap_steps(sc, 120);
  core::DetectionSystemOptions options;
  options.deadline_budget = sc.deadline_budget;

  core::DetectionSystem first(sc.scase, sc.attack, sc.sim_seed, options);
  const sim::Trace a = first.run();
  core::DetectionSystem second(sc.scase, sc.attack, sc.sim_seed, options);
  const sim::Trace b = second.run();
  if (a.size() != b.size()) {
    return PropertyResult::fail("replayed trace length diverged; " + sc.describe());
  }
  for (std::size_t t = 0; t < a.size(); ++t) {
    if (!records_equal(a[t], b[t])) {
      return PropertyResult::fail("replayed trace diverged at t=" + std::to_string(t) +
                                  " for identical seed " + std::to_string(sc.sim_seed) +
                                  "; " + sc.describe());
    }
  }
  if (first.adaptive_evaluations() != second.adaptive_evaluations()) {
    return PropertyResult::fail("adaptive evaluation counts diverged on replay; " +
                                sc.describe());
  }
  return PropertyResult::pass();
}

PropertyResult checkpoint_roundtrip(std::uint64_t seed, const GenLimits& limits) {
  PropRng rng(seed);
  Scenario sc = generate_scenario(rng, limits, {});
  cap_steps(sc, 140);
  core::DetectionSystemOptions options;
  options.deadline_budget = sc.deadline_budget;

  const std::size_t steps = sc.scase.steps;
  if (steps < 2) return PropertyResult::pass();
  // The interruption point k is drawn below the (shrinkable) run length, so
  // the shrinker minimizes k along with everything else.
  const std::size_t k = rng.range(1, steps - 1);

  core::DetectionSystem reference(sc.scase, sc.attack, sc.sim_seed, options);
  const sim::Trace want = reference.run(steps);

  core::DetectionSystem first(sc.scase, sc.attack, sc.sim_seed, options);
  for (std::size_t t = 0; t < k; ++t) (void)first.step();
  core::ckpt::Writer w;
  first.serialize(w);

  core::DetectionSystem second(sc.scase, sc.attack, sc.sim_seed, options);
  core::ckpt::Reader r(w.data().data(), w.size());
  const core::Status restored = second.deserialize(r);
  if (!restored.is_ok()) {
    return PropertyResult::fail("deserialize failed after k=" + std::to_string(k) +
                                " steps: " + std::string(restored.message()) + "; " +
                                sc.describe());
  }
  if (!r.at_end()) {
    return PropertyResult::fail(
        "snapshot bytes not fully consumed on restore (k=" + std::to_string(k) +
        ", " + std::to_string(r.remaining()) + " bytes left); " + sc.describe());
  }
  for (std::size_t t = k; t < steps; ++t) {
    const sim::StepRecord rec = second.step();
    if (!records_equal(rec, want[t])) {
      return PropertyResult::fail("restored pipeline diverged at t=" +
                                  std::to_string(t) + " after a checkpoint at k=" +
                                  std::to_string(k) + "; " + sc.describe());
    }
  }
  if (second.adaptive_evaluations() != reference.adaptive_evaluations()) {
    return PropertyResult::fail(
        "adaptive evaluation counts diverged after restore (k=" + std::to_string(k) +
        ": " + std::to_string(second.adaptive_evaluations()) + " vs " +
        std::to_string(reference.adaptive_evaluations()) + "); " + sc.describe());
  }
  return PropertyResult::pass();
}

}  // namespace awd::testkit::props
