#include "core/detection_system.hpp"

#include <stdexcept>

#include "obs/obs.hpp"

namespace awd::core {

namespace {

/// Pipeline-level instrumentation, registered once per process.  The five
/// stage timers mirror the spans emitted per step: estimate → residual →
/// deadline → window-adapt → detect (DESIGN.md §10).
struct StepObs {
  obs::Timer& stage_estimate;
  obs::Timer& stage_residual;
  obs::Timer& stage_deadline;
  obs::Timer& stage_window_adapt;
  obs::Timer& stage_detect;
  obs::Counter& steps;
  obs::Counter& adaptive_alarms;
  obs::Counter& fixed_alarms;
  obs::Counter& unsafe_steps;
  obs::Counter& deadline_fallbacks;
  obs::Counter& seed_unavailable;

  static StepObs& get() {
    static StepObs o{
        obs::Registry::global().timer("awd_stage_estimate",
                                      "simulator advance + state estimation"),
        obs::Registry::global().timer("awd_stage_residual",
                                      "data-logger buffering + residual computation"),
        obs::Registry::global().timer("awd_stage_deadline",
                                      "reachability-based deadline estimation"),
        obs::Registry::global().timer("awd_stage_window_adapt",
                                      "adaptive window selection + complementary sweeps"),
        obs::Registry::global().timer("awd_stage_detect",
                                      "fixed baseline evaluation + health folding"),
        obs::Registry::global().counter("awd_detection_steps_total",
                                        "control periods run through DetectionSystem"),
        obs::Registry::global().counter("awd_alarms_adaptive_total",
                                        "steps where the adaptive detector alarmed"),
        obs::Registry::global().counter("awd_alarms_fixed_total",
                                        "steps where the fixed baseline alarmed"),
        obs::Registry::global().counter("awd_unsafe_steps_total",
                                        "steps with the true state outside the safe set"),
        obs::Registry::global().counter("awd_deadline_fallback_total",
                                        "steps served by the deadline decay fallback"),
        obs::Registry::global().counter(
            "awd_deadline_seed_unavailable_total",
            "steps with no trusted seed outside the previous window"),
    };
    return o;
  }
};

}  // namespace

DetectionSystem::DetectionSystem(AssembleTag, const SimulatorCase& scase,
                                 AttackKind attack, std::uint64_t seed,
                                 DetectionSystemOptions options)
    : case_(scase),
      faults_(options.fault_plan.empty()
                  ? nullptr
                  : std::make_shared<fault::FaultInjector>(std::move(options.fault_plan))),
      simulator_(scase.make_simulator(attack, seed, faults_, options.lean_records)),
      logger_(scase.model, scase.max_window),
      // create() validated (or built) the shared backend; never null here.
      estimator_(std::move(options.shared_deadline_estimator)),
      adaptive_(scase.tau, scase.max_window),
      fixed_(scase.tau, options.fixed_window.value_or(scase.fixed_window)),
      health_(options.health),
      per_step_obs_(options.per_step_obs),
      last_valid_deadline_(scase.max_window) {}

Result<DetectionSystem> DetectionSystem::create(const SimulatorCase& scase,
                                                AttackKind attack, std::uint64_t seed,
                                                DetectionSystemOptions options) {
  if (Status s = scase.check(); !s.is_ok()) return s;
  const reach::BackendSpec spec =
      make_backend_spec(scase, options.init_radius, options.deadline_budget);
  if (options.shared_deadline_estimator) {
    const reach::Backend& shared = *options.shared_deadline_estimator;
    const reach::DeadlineConfig& cfg = shared.config();
    if (cfg.max_window != scase.max_window || cfg.init_radius != options.init_radius ||
        cfg.budget_steps != options.deadline_budget) {
      return Status{StatusCode::kInvalidInput,
                    "shared deadline estimator config mismatch "
                    "(max_window/init_radius/budget must match the case)"};
    }
    if (shared.safe_set().dim() != scase.model.state_dim()) {
      return Status{StatusCode::kInvalidInput,
                    "shared deadline estimator dimension mismatch"};
    }
    // The fingerprint covers everything the config triple above does not:
    // plant matrices, ε_reach, safe-set bounds, backend kind, grid knobs.
    if (shared.fingerprint() != reach::spec_fingerprint(spec)) {
      return Status{StatusCode::kInvalidInput,
                    "shared deadline backend fingerprint mismatch (built for a "
                    "different configuration)"};
    }
  } else {
    Result<std::unique_ptr<reach::Backend>> built = reach::make_backend(spec);
    if (!built.is_ok()) return built.status();
    options.shared_deadline_estimator =
        std::shared_ptr<const reach::Backend>(std::move(built).value());
  }
  try {
    return DetectionSystem(AssembleTag{}, scase, attack, seed, std::move(options));
  } catch (const std::exception&) {
    // check() vets everything the component constructors re-validate; a
    // throw past this point is a wiring gap, surfaced as a status so the
    // serving path still cannot unwind.
    return Status{StatusCode::kInvalidInput, "case rejected during assembly"};
  }
}

DetectionSystem::DetectionSystem(const SimulatorCase& scase, AttackKind attack,
                                 std::uint64_t seed, DetectionSystemOptions options)
    : DetectionSystem([&]() -> DetectionSystem {
        scase.validate();  // key-prefixed diagnostics for the throwing path
        Result<DetectionSystem> r = create(scase, attack, seed, std::move(options));
        if (!r.is_ok()) {
          throw std::invalid_argument("DetectionSystem: " +
                                      std::string(r.status().message()));
        }
        return std::move(r).value();
      }()) {}

sim::StepRecord DetectionSystem::step() {
  sim::StepRecord rec;
  step_into(rec);
  return rec;
}

void DetectionSystem::step_into(sim::StepRecord& rec) {
  StepObs& ob = StepObs::get();
  obs::StageClock stage_clock(per_step_obs_);

  simulator_.step_into(rec);
  rec.deadline_fallback = false;  // reused records must not leak the flag
  stage_clock.mark(ob.stage_estimate, "step.estimate");

  // Data Logger: buffer the estimate and the control input the predictor
  // will use for step t+1 (commanded vs applied per the case's setting).
  // The simulator guarantees finite estimates (hold-last fallback), but the
  // logger quarantine is the second line of defense; a contract violation
  // here is a wiring bug, not a runtime fault.
  const Vec& u_for_prediction =
      case_.predict_with_commanded ? rec.commanded : rec.control;
  const core::Status log_status = logger_.log_checked(rec.t, rec.estimate, u_for_prediction);
  if (!log_status.is_ok()) {
    throw std::logic_error("DetectionSystem::step: " + std::string(log_status.message()));
  }
  rec.residual_quarantined = logger_.entry(rec.t).quarantined;
  stage_clock.mark(ob.stage_residual, "step.residual");

  // Deadline Estimator, seeded with the trusted estimate that sits just
  // outside the *previous* detection window (§3.3.1).  Before enough
  // history exists the system cannot be near-unsafe by assumption (the run
  // starts from a trusted state), so the deadline defaults to w_m.
  //
  // Degradation: when the seed is unusable (quarantined), the search blows
  // its real-time budget (injected or real), or the estimate fails, the
  // deadline falls back to the last valid deadline decremented by the steps
  // elapsed since — the safe direction: the true deadline can shrink by at
  // most one per step — with floor 1, the most alert the window gets.
  std::size_t deadline = case_.max_window;
  bool deadline_failed = false;
  const Vec* seed_state = logger_.trusted_state_view(rec.t, adaptive_.previous_window());
  if (!seed_state) ob.seed_unavailable.inc();
  if (seed_state) {
    if (faults_ && faults_->deadline_budget_exhausted(rec.t)) {
      deadline_failed = true;  // simulated budget exhaustion from the plan
      // Attribute the step unless a sensor fault already claimed it, so the
      // health monitor's per-kind counters see deadline faults too.
      if (rec.fault == fault::FaultKind::kNone) {
        rec.fault = fault::FaultKind::kDeadlineBudget;
      }
    } else {
      const core::Result<std::size_t> est = estimator_->estimate_checked(*seed_state);
      if (est.is_ok()) {
        deadline = est.value();
      } else {
        deadline_failed = true;
      }
    }
  }
  if (deadline_failed) {
    ++fallback_steps_;
    deadline = last_valid_deadline_ > fallback_steps_
                   ? last_valid_deadline_ - fallback_steps_
                   : 1;
    rec.deadline_fallback = true;
    ob.deadline_fallbacks.inc();
  } else {
    last_valid_deadline_ = deadline;
    fallback_steps_ = 0;
  }
  rec.deadline = deadline;
  stage_clock.mark(ob.stage_deadline, "step.deadline");

  // Adaptive Detector (§4.2) with complementary sweeps on shrink.
  adaptive_.step_into(logger_, rec.t, deadline, adaptive_scratch_);
  const detect::AdaptiveDecision& ad = adaptive_scratch_;
  evaluations_ += ad.evaluations;
  rec.window = ad.window;
  rec.adaptive_alarm = ad.any_alarm();
  // Forensics scalars: the logged residual's L∞ norm (the logger's entry is
  // populated even under lean_records) and the current-step window test's
  // normalized statistic max_d mean[d]/τ[d].  Plain scalar arithmetic, so
  // both replay bit-identically.  The statistic covers
  // the current-step test; a complementary-sweep alarm can raise
  // adaptive_alarm with the statistic still <= 1.
  rec.residual_norm = logger_.entry(rec.t).residual.norm_inf();
  rec.detect_stat = 0.0;
  for (std::size_t d = 0; d < ad.mean_residual.size(); ++d) {
    const double ratio = ad.mean_residual[d] / case_.tau[d];
    if (ratio > rec.detect_stat) rec.detect_stat = ratio;
  }
  stage_clock.mark(ob.stage_window_adapt, "step.window_adapt");

  // Fixed-window baseline on the same residual stream.
  fixed_.step_into(logger_, rec.t, fixed_scratch_);
  rec.fixed_alarm = fixed_scratch_.alarm;

  rec.unsafe = !case_.safe_set.contains(rec.true_state);

  // Health: fold this step's fault and fallback signals into the state
  // machine so degradation is observable from the trace.
  const bool degraded = rec.estimate_fallback || rec.residual_quarantined ||
                        rec.deadline_fallback || rec.sample_missing;
  rec.health = health_.step(rec.fault, degraded);
  stage_clock.mark(ob.stage_detect, "step.detect");

  ob.steps.inc();
  if (rec.adaptive_alarm) ob.adaptive_alarms.inc();
  if (rec.fixed_alarm) ob.fixed_alarms.inc();
  if (rec.unsafe) ob.unsafe_steps.inc();
}

sim::Trace DetectionSystem::run(std::size_t steps) {
  const std::size_t total = steps == 0 ? case_.steps : steps;
  sim::Trace trace;
  trace.reserve(total);
  for (std::size_t i = 0; i < total; ++i) trace.push(step());
  return trace;
}

void DetectionSystem::serialize(ckpt::Writer& w) const {
  simulator_.serialize(w);
  logger_.serialize(w);
  adaptive_.serialize(w);
  fixed_.serialize(w);
  health_.serialize(w);
  w.b(faults_ != nullptr);
  if (faults_) faults_->serialize(w);
  w.u64(evaluations_);
  w.u64(last_valid_deadline_);
  w.u64(fallback_steps_);
}

Status DetectionSystem::deserialize(ckpt::Reader& r) {
  if (Status s = simulator_.deserialize(r); !s.is_ok()) return s;
  if (Status s = logger_.deserialize(r); !s.is_ok()) return s;
  if (Status s = adaptive_.deserialize(r); !s.is_ok()) return s;
  if (Status s = fixed_.deserialize(r); !s.is_ok()) return s;
  if (Status s = health_.deserialize(r); !s.is_ok()) return s;
  bool has_faults = false;
  if (!r.b(has_faults)) return r.status();
  if (has_faults != (faults_ != nullptr)) {
    return Status{StatusCode::kInvalidInput,
                  "snapshot fault injector presence disagrees with options"};
  }
  if (faults_) {
    if (Status s = faults_->deserialize(r); !s.is_ok()) return s;
  }
  std::uint64_t evaluations = 0;
  std::uint64_t last_valid_deadline = 0;
  std::uint64_t fallback_steps = 0;
  if (!r.u64(evaluations) || !r.u64(last_valid_deadline) || !r.u64(fallback_steps)) {
    return r.status();
  }
  evaluations_ = static_cast<std::size_t>(evaluations);
  last_valid_deadline_ = static_cast<std::size_t>(last_valid_deadline);
  fallback_steps_ = static_cast<std::size_t>(fallback_steps);
  return Status::ok();
}

}  // namespace awd::core
