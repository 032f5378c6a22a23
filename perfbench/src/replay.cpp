#include "replay.hpp"

#include <bit>
#include <cstdio>

namespace perfbench {

namespace {

using awd::Vec;

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_vec(const Vec& a, const Vec& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!same_bits(a[i], b[i])) return false;
  }
  return true;
}

/// Name of the first detection field where the records differ, or nullptr.
const char* first_difference(const awd::StepRecord& a, const awd::StepRecord& b) {
  if (a.t != b.t) return "t";
  if (!same_vec(a.true_state, b.true_state)) return "true_state";
  if (!same_vec(a.estimate, b.estimate)) return "estimate";
  if (!same_vec(a.control, b.control)) return "control";
  if (a.attack_active != b.attack_active) return "attack_active";
  if (a.deadline != b.deadline) return "deadline";
  if (a.window != b.window) return "window";
  if (a.adaptive_alarm != b.adaptive_alarm) return "adaptive_alarm";
  if (a.fixed_alarm != b.fixed_alarm) return "fixed_alarm";
  if (a.unsafe != b.unsafe) return "unsafe";
  if (!same_bits(a.residual_norm, b.residual_norm)) return "residual_norm";
  if (!same_bits(a.detect_stat, b.detect_stat)) return "detect_stat";
  if (a.fault != b.fault) return "fault";
  if (a.sample_missing != b.sample_missing) return "sample_missing";
  if (a.estimate_fallback != b.estimate_fallback) return "estimate_fallback";
  if (a.residual_quarantined != b.residual_quarantined) return "residual_quarantined";
  if (a.deadline_fallback != b.deadline_fallback) return "deadline_fallback";
  if (a.health != b.health) return "health";
  return nullptr;
}

const char* estimate_span_name(awd::BackendKind kind) {
  switch (kind) {
    case awd::BackendKind::kBox: return "reach.box.estimate";
    case awd::BackendKind::kTable: return "reach.table.estimate";
    case awd::BackendKind::kEllipsoid: return "reach.ellipsoid.estimate";
  }
  return "reach.estimate";
}

}  // namespace

bool same_run_metrics(const awd::RunMetrics& a, const awd::RunMetrics& b) {
  return same_bits(a.fp_rate, b.fp_rate) &&
         a.first_alarm_after_onset == b.first_alarm_after_onset &&
         a.detection_delay == b.detection_delay &&
         a.deadline_at_onset == b.deadline_at_onset && a.fp_experiment == b.fp_experiment &&
         a.deadline_miss == b.deadline_miss && a.false_negative == b.false_negative &&
         a.first_unsafe == b.first_unsafe;
}

void ReplayStats::add(const ReplayStats& o) {
  streams += o.streams;
  steps += o.steps;
  evaluations += o.evaluations;
  shrinks += o.shrinks;
  window_sum += o.window_sum;
  alarm_edges += o.alarm_edges;
  seed_unavailable += o.seed_unavailable;
  fallbacks += o.fallbacks;
  degraded += o.degraded;
  mismatches += o.mismatches;
  if (first_mismatch.empty()) first_mismatch = o.first_mismatch;
}

bool ReplayStats::same_shape(const ReplayStats& o) const {
  return streams == o.streams && steps == o.steps && evaluations == o.evaluations &&
         shrinks == o.shrinks && window_sum == o.window_sum &&
         alarm_edges == o.alarm_edges && seed_unavailable == o.seed_unavailable &&
         fallbacks == o.fallbacks && degraded == o.degraded && mismatches == o.mismatches;
}

Json ReplayStats::json() const {
  Json j;
  j.count("streams", streams)
      .count("steps", steps)
      .count("evaluations", evaluations)
      .count("shrinks", shrinks)
      .count("window_sum", window_sum)
      .count("alarm_edges", alarm_edges)
      .count("seed_unavailable", seed_unavailable)
      .count("fallbacks", fallbacks)
      .count("degraded", degraded)
      .count("mismatched_streams", mismatches);
  return j;
}

ReplayStats replay_stream(const ReplayInput& in, SpanLog* spans) {
  const awd::SimulatorCase& scase = *in.scase;
  const std::size_t steps = in.steps == 0 ? scase.steps : in.steps;
  ReplayStats st;
  st.streams = 1;
  const auto mismatch = [&](const std::string& why) {
    st.mismatches = 1;
    char buf[96];
    std::snprintf(buf, sizeof buf, "stream %llu: ",
                  static_cast<unsigned long long>(in.stream_id));
    st.first_mismatch = buf + why;
  };

  // The reference: a real pipeline of the same spec.
  awd::DetectionSystemOptions ref_options = in.options;
  ref_options.shared_deadline_estimator = in.backend;
  awd::Result<awd::DetectionSystem> created =
      awd::DetectionSystem::create(scase, in.attack, in.seed, ref_options);
  if (!created.is_ok()) {
    mismatch("reference create failed: " + std::string(created.status().message()));
    return st;
  }
  awd::DetectionSystem reference = std::move(created).value();

  // The same pipeline assembled from the layers' public classes, wired the
  // way DetectionSystem wires them.
  std::shared_ptr<awd::fault::FaultInjector> faults =
      in.options.fault_plan.empty()
          ? nullptr
          : std::make_shared<awd::fault::FaultInjector>(in.options.fault_plan);
  awd::sim::SimulatorOptions sim_options;
  sim_options.x0 = scase.x0;
  sim_options.reference = scase.reference;
  sim_options.sensor_noise = scase.sensor_noise;
  sim_options.seed = in.seed;
  sim_options.predict_with_commanded = scase.predict_with_commanded;
  sim_options.reference_schedule = scase.reference_schedule;
  sim_options.reference_sinusoids = scase.reference_sinusoids;
  sim_options.faults = faults;
  sim_options.lean_records = in.options.lean_records;
  awd::sim::Simulator simulator(awd::sim::Plant(scase.model, scase.u_range, scase.eps, scase.x0),
                                scase.make_controller(), scase.make_attack(in.attack),
                                std::move(sim_options));
  awd::detect::DataLogger logger(scase.model, scase.max_window);
  const awd::Backend& backend = *in.backend;
  awd::detect::AdaptiveDetector adaptive(scase.tau, scase.max_window);
  awd::detect::FixedWindowDetector fixed(scase.tau,
                                         in.options.fixed_window.value_or(scase.fixed_window));
  awd::fault::HealthMonitor health(in.options.health);
  std::optional<awd::StreamingMetrics> metrics;
  std::optional<awd::StreamingMetrics> ref_metrics;
  std::unique_ptr<awd::obs::FlightRecorder> recorder;
  if (in.recorder_depth > 0) {
    metrics.emplace(scase.attack_start, scase.attack_duration, in.metrics);
    ref_metrics.emplace(scase.attack_start, scase.attack_duration, in.metrics);
    recorder = std::make_unique<awd::obs::FlightRecorder>(in.recorder_depth);
  }
  const char* const estimate_span = estimate_span_name(backend.kind());

  std::size_t last_valid_deadline = scase.max_window;
  std::size_t fallback_steps = 0;
  std::size_t evaluations = 0;
  std::size_t prev_window = 0;
  bool prev_alarm = false;
  awd::detect::AdaptiveDecision ad;
  awd::detect::WindowDecision fd;
  awd::StepRecord rec;
  awd::StepRecord ref_rec;

  for (std::size_t k = 0; k < steps; ++k) {
    const std::int64_t parent = spans ? spans->open("replay.step", -1, in.stream_id, k) : -1;
    {
      const ScopedSpan s(spans, "sim.step", parent, in.stream_id, k);
      simulator.step_into(rec);
      rec.deadline_fallback = false;
    }
    {
      const ScopedSpan s(spans, "detect.logger.log", parent, in.stream_id, k);
      const Vec& u = scase.predict_with_commanded ? rec.commanded : rec.control;
      const awd::Status logged = logger.log_checked(rec.t, rec.estimate, u);
      if (!logged.is_ok()) {
        mismatch("log_checked: " + std::string(logged.message()));
        return st;
      }
      rec.residual_quarantined = logger.entry(rec.t).quarantined;
    }
    // Deadline with the documented decay fallback (DetectionSystem §3.3.1).
    std::size_t deadline = scase.max_window;
    bool deadline_failed = false;
    const Vec* seed_state = logger.trusted_state_view(rec.t, adaptive.previous_window());
    if (!seed_state) ++st.seed_unavailable;
    if (seed_state) {
      if (faults && faults->deadline_budget_exhausted(rec.t)) {
        deadline_failed = true;
        if (rec.fault == awd::FaultKind::kNone) rec.fault = awd::FaultKind::kDeadlineBudget;
      } else {
        const ScopedSpan s(spans, estimate_span, parent, in.stream_id, k);
        const awd::Result<std::size_t> est = backend.estimate_checked(*seed_state);
        if (est.is_ok()) {
          deadline = est.value();
        } else {
          deadline_failed = true;
        }
      }
    }
    if (deadline_failed) {
      ++fallback_steps;
      deadline = last_valid_deadline > fallback_steps ? last_valid_deadline - fallback_steps : 1;
      rec.deadline_fallback = true;
      ++st.fallbacks;
    } else {
      last_valid_deadline = deadline;
      fallback_steps = 0;
    }
    rec.deadline = deadline;
    {
      const ScopedSpan s(spans, "detect.adaptive.step", parent, in.stream_id, k);
      adaptive.step_into(logger, rec.t, deadline, ad);
      evaluations += ad.evaluations;
      rec.window = ad.window;
      rec.adaptive_alarm = ad.any_alarm();
      rec.residual_norm = logger.entry(rec.t).residual.norm_inf();
      rec.detect_stat = 0.0;
      for (std::size_t d = 0; d < ad.mean_residual.size(); ++d) {
        const double ratio = ad.mean_residual[d] / scase.tau[d];
        if (ratio > rec.detect_stat) rec.detect_stat = ratio;
      }
    }
    {
      const ScopedSpan s(spans, "detect.fixed.step", parent, in.stream_id, k);
      fixed.step_into(logger, rec.t, fd);
      rec.fixed_alarm = fd.alarm;
    }
    {
      const ScopedSpan s(spans, "fault.health.step", parent, in.stream_id, k);
      rec.unsafe = !scase.safe_set.contains(rec.true_state);
      const bool degraded = rec.estimate_fallback || rec.residual_quarantined ||
                            rec.deadline_fallback || rec.sample_missing;
      rec.health = health.step(rec.fault, degraded);
    }
    if (metrics) {
      const ScopedSpan s(spans, "core.metrics.observe", parent, in.stream_id, k);
      metrics->observe(rec);
    }
    if (recorder) {
      const ScopedSpan s(spans, "obs.recorder.record", parent, in.stream_id, k);
      recorder->record(rec);
    }
    if (spans) spans->close(parent);

    ++st.steps;
    if (k > 0 && rec.window < prev_window) ++st.shrinks;
    st.window_sum += rec.window;
    if (rec.adaptive_alarm && !prev_alarm) ++st.alarm_edges;
    if (rec.health != awd::HealthState::kNominal) ++st.degraded;
    prev_window = rec.window;
    prev_alarm = rec.adaptive_alarm;

    reference.step_into(ref_rec);
    if (ref_metrics) ref_metrics->observe(ref_rec);
    if (const char* field = first_difference(rec, ref_rec)) {
      mismatch("step " + std::to_string(k) + " differs in " + field);
      return st;
    }
  }
  st.evaluations = evaluations;
  if (evaluations != reference.adaptive_evaluations()) mismatch("adaptive_evaluations differ");
  if (metrics && (!same_run_metrics(metrics->finish(awd::Strategy::kAdaptive),
                                    ref_metrics->finish(awd::Strategy::kAdaptive)) ||
                  !same_run_metrics(metrics->finish(awd::Strategy::kFixed),
                                    ref_metrics->finish(awd::Strategy::kFixed)))) {
    mismatch("streaming metrics differ");
  }
  return st;
}

}  // namespace perfbench
