#include "sim/simulator.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

namespace awd::sim {

Simulator::Simulator(Plant plant, std::unique_ptr<Controller> controller,
                     std::shared_ptr<const attack::Attack> attack, SimulatorOptions opts)
    : plant_(std::move(plant)),
      controller_(std::move(controller)),
      attack_(std::move(attack)),
      opts_(std::move(opts)),
      rng_(opts_.seed) {
  if (!controller_) throw std::invalid_argument("Simulator: null controller");
  if (!attack_) throw std::invalid_argument("Simulator: null attack");
  const std::size_t n = plant_.model().state_dim();
  if (opts_.x0.size() != n) throw std::invalid_argument("Simulator: x0 dimension mismatch");
  if (opts_.reference.size() != n) {
    throw std::invalid_argument("Simulator: reference dimension mismatch");
  }
  if (opts_.sensor_noise.size() != n) {
    throw std::invalid_argument("Simulator: sensor_noise dimension mismatch");
  }
  for (const ReferenceSine& sine : opts_.reference_sinusoids) {
    if (sine.dim >= n) {
      throw std::invalid_argument("Simulator: reference sinusoid dimension out of range");
    }
    if (sine.period_steps <= 0.0) {
      throw std::invalid_argument("Simulator: reference sinusoid period must be positive");
    }
  }
  for (std::size_t i = 0; i < opts_.reference_schedule.size(); ++i) {
    if (opts_.reference_schedule[i].second.size() != n) {
      throw std::invalid_argument("Simulator: reference_schedule dimension mismatch");
    }
    if (i > 0 &&
        opts_.reference_schedule[i].first < opts_.reference_schedule[i - 1].first) {
      throw std::invalid_argument("Simulator: reference_schedule must be sorted by step");
    }
  }
  reference_ = opts_.reference;
  record_history_ = attack_->needs_history();
  plant_.reset(opts_.x0);
}

StepRecord Simulator::step() {
  StepRecord rec;
  step_into(rec);
  return rec;
}

void Simulator::step_into(StepRecord& rec) {
  const std::size_t n = plant_.model().state_dim();

  rec.t = t_;
  rec.true_state = plant_.state();
  // Reset the per-step flags this function owns; a reused record must not
  // leak the previous step's fault attribution.
  rec.fault = fault::FaultKind::kNone;
  rec.sample_missing = false;
  rec.estimate_fallback = false;

  // 1. Sensor: true state plus bounded measurement noise.  The noise draw
  // happens unconditionally so the RNG stream — and therefore the rest of
  // the run — is identical with and without injected sensor faults.
  rng_.uniform_in_box_into(opts_.sensor_noise, noise_scratch_);
  clean_scratch_ = rec.true_state;
  clean_scratch_ += noise_scratch_;
  const Vec& clean = clean_scratch_;

  // 2. Attack path — the attacker sees/needs only the clean stream.  The
  // delivered-sample buffer is reused across steps (re-engaged after a
  // fault dropout cleared it).
  rec.attack_active = attack_->active(t_);
  if (!delivered_scratch_) delivered_scratch_.emplace();
  attack_->apply_into(t_, clean, clean_measurements_, *delivered_scratch_);
  std::optional<Vec>& delivered = delivered_scratch_;
  if (record_history_) clean_measurements_.push_back(clean);

  // 2b. Fault injection on the delivered sample (dropout / corruption /
  // stuck-at), after the attack: faults model the transport between sensor
  // and monitor, the last hop of the chain.
  if (opts_.faults) rec.fault = opts_.faults->apply_sensor(t_, delivered);

  // 3. Estimation stage (the paper's default: estimate = measurement).  The
  // checked call rejects missing or non-finite samples; the loop then holds
  // its last value — the only state it can still trust — so the controller
  // keeps acting and the logger keeps a finite stream.
  const core::Status est =
      estimator_.estimate_checked_into(delivered, rec.estimate);
  if (!est.is_ok()) {
    rec.estimate_fallback = true;
    rec.sample_missing = !delivered.has_value();
    rec.estimate = t_ == 0 ? opts_.x0 : prev_estimate_;
  }
  // Emit the sanitized view: what the pipeline actually used.  Raw NaN/Inf
  // never leaves the injector boundary; `rec.fault` records why.
  rec.measurement = delivered && delivered->is_finite() ? *delivered : rec.estimate;

  // 4. Prediction and residual (Data Logger, §5 "Buffer").  Record-only
  // fields: the DataLogger recomputes both from its own buffer, so lean
  // runs skip them (emptied, never stale) without touching detection.
  if (opts_.lean_records) {
    rec.predicted.assign(0);
    rec.residual.assign(0);
  } else if (t_ == 0) {
    rec.predicted = rec.estimate;  // no prior step; define residual as zero
    rec.residual.assign(n, 0.0);
  } else {
    plant_.model().step_into(prev_estimate_, prev_control_, rec.predicted, mul_scratch_);
    rec.residual.assign(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      rec.residual[i] = std::abs(rec.predicted[i] - rec.estimate[i]);
    }
  }

  // 5-6. Control and plant advance (applying any scheduled setpoint change
  // and the sinusoidal trajectory components).
  while (next_ref_ < opts_.reference_schedule.size() &&
         opts_.reference_schedule[next_ref_].first <= t_) {
    reference_ = opts_.reference_schedule[next_ref_].second;
    ++next_ref_;
  }
  ref_scratch_ = reference_;
  Vec& ref = ref_scratch_;
  for (const ReferenceSine& sine : opts_.reference_sinusoids) {
    ref[sine.dim] += sine.amplitude *
                     std::sin(2.0 * std::numbers::pi * static_cast<double>(t_) /
                              sine.period_steps);
  }
  controller_->compute_into(rec.estimate, ref, rec.commanded);
  plant_.step_into(rec.commanded, rng_, rec.control);

  prev_estimate_ = rec.estimate;
  prev_control_ = opts_.predict_with_commanded ? rec.commanded : rec.control;
  ++t_;
}

Trace Simulator::run(std::size_t steps) {
  Trace trace;
  trace.reserve(steps);
  for (std::size_t i = 0; i < steps; ++i) trace.push(step());
  return trace;
}

void Simulator::serialize(core::ckpt::Writer& w) const {
  w.u64(t_);
  w.vec(reference_);
  w.u64(next_ref_);
  w.vec(prev_estimate_);
  w.vec(prev_control_);
  w.b(record_history_);
  w.u64(clean_measurements_.size());
  for (const Vec& m : clean_measurements_) w.vec(m);
  plant_.serialize(w);
  rng_.serialize(w);
  controller_->serialize_state(w);
  estimator_.serialize_state(w);
}

core::Status Simulator::deserialize(core::ckpt::Reader& r) {
  const std::size_t n = plant_.model().state_dim();

  std::uint64_t t = 0;
  Vec reference;
  std::uint64_t next_ref = 0;
  Vec prev_estimate;
  Vec prev_control;
  bool record_history = true;
  std::uint64_t history_count = 0;
  if (!r.u64(t) || !r.vec(reference) || !r.u64(next_ref) || !r.vec(prev_estimate) ||
      !r.vec(prev_control) || !r.b(record_history) || !r.u64(history_count)) {
    return r.status();
  }
  if (reference.size() != n) {
    return core::Status{core::StatusCode::kInvalidInput,
                        "snapshot simulator reference dimension mismatch"};
  }
  if (next_ref > opts_.reference_schedule.size()) {
    return core::Status{core::StatusCode::kInvalidInput,
                        "snapshot simulator schedule cursor out of range"};
  }
  // Before the first step both prev vectors are empty; afterwards the
  // estimate has state dimension and the control has input dimension.
  const std::size_t m = plant_.model().input_dim();
  if (!(prev_estimate.empty() && prev_control.empty() && t == 0) &&
      !(prev_estimate.size() == n && prev_control.size() == m && t > 0)) {
    return core::Status{core::StatusCode::kInvalidInput,
                        "snapshot simulator previous-step state inconsistent"};
  }
  if (record_history != record_history_) {
    return core::Status{core::StatusCode::kInvalidInput,
                        "snapshot simulator history policy disagrees with the attack"};
  }
  // History-reading attacks keep every clean sample; others keep none.
  if (history_count != (record_history_ ? t : 0)) {
    return core::Status{core::StatusCode::kInvalidInput,
                        "snapshot simulator history length inconsistent"};
  }
  std::vector<Vec> history;
  history.reserve(static_cast<std::size_t>(history_count));
  for (std::uint64_t i = 0; i < history_count; ++i) {
    Vec sample;
    if (!r.vec(sample)) return r.status();
    if (sample.size() != n) {
      return core::Status{core::StatusCode::kInvalidInput,
                          "snapshot simulator history dimension mismatch"};
    }
    history.push_back(std::move(sample));
  }
  if (core::Status s = plant_.deserialize(r); !s.is_ok()) return s;
  if (core::Status s = rng_.deserialize(r); !s.is_ok()) return s;
  if (core::Status s = controller_->restore_state(r); !s.is_ok()) return s;
  if (core::Status s = estimator_.restore_state(r); !s.is_ok()) return s;

  t_ = static_cast<std::size_t>(t);
  reference_ = std::move(reference);
  next_ref_ = static_cast<std::size_t>(next_ref);
  prev_estimate_ = std::move(prev_estimate);
  prev_control_ = std::move(prev_control);
  clean_measurements_ = std::move(history);
  return core::Status::ok();
}

}  // namespace awd::sim
