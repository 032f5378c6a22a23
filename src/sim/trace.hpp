// trace.hpp — per-step record of a closed-loop run.
//
// Everything the evaluation section needs is derived from traces: alarm
// times, false-positive rates before the attack, deadline misses, and the
// time-series plotted in Fig. 6 / Fig. 8.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "fault/fault.hpp"
#include "fault/health.hpp"
#include "linalg/vec.hpp"

namespace awd::sim {

using linalg::Vec;

/// One control period of a simulation, including detection outputs when a
/// detection system drove the run (fields default to benign values for
/// plain simulations).
struct StepRecord {
  std::size_t t = 0;        ///< control step index
  Vec true_state;           ///< plant state x_t (ground truth)
  Vec measurement;          ///< sensor output seen by the controller (post-attack)
  Vec estimate;             ///< state estimate x̄_t
  Vec predicted;            ///< model prediction x̃_t = A x̄_{t-1} + B u_{t-1}
  Vec residual;             ///< z_t = |x̃_t - x̄_t|
  Vec control;              ///< applied (saturated) input u_t
  Vec commanded;            ///< controller output before saturation
  bool attack_active = false;

  // Detection outputs (populated by core::DetectionSystem).
  std::size_t deadline = 0;       ///< estimated detection deadline t_d at this step
  std::size_t window = 0;         ///< adaptive detector's window size w_c
  bool adaptive_alarm = false;    ///< adaptive detector raised an alarm this step
  bool fixed_alarm = false;       ///< fixed-window baseline raised an alarm this step
  bool unsafe = false;            ///< true state outside the safe set this step

  // Forensics scalars (populated by core::DetectionSystem).  Both are
  // derived from the logger/detector state — not the record-only residual
  // field — so they are valid under lean_records and, like every detection
  // output, bit-identical on replay.
  double residual_norm = 0.0;  ///< ‖z_t‖∞ of this step's logged residual
  double detect_stat = 0.0;    ///< max_d mean_residual[d]/τ[d] of the window test
                               ///< (> 1 exactly when the current-step test alarms)

  // Fault / degradation observability (benign defaults when no FaultInjector
  // is wired in).  `measurement` and `estimate` always hold the *sanitized*
  // values the pipeline actually used — on a dropped or corrupted sample
  // they hold the fallback estimate, and `fault` says why.
  fault::FaultKind fault = fault::FaultKind::kNone;  ///< sensor fault injected at t
  bool sample_missing = false;      ///< no sample delivered this period (dropout/burst)
  bool estimate_fallback = false;   ///< estimator held its last value
  bool residual_quarantined = false;  ///< logger quarantined this step's residual
  bool deadline_fallback = false;   ///< deadline came from the decay fallback
  fault::HealthState health = fault::HealthState::kNominal;  ///< state after t
};

/// Immutable-by-convention sequence of step records with query helpers.
class Trace {
 public:
  void push(StepRecord rec) { steps_.push_back(std::move(rec)); }
  void reserve(std::size_t n) { steps_.reserve(n); }

  [[nodiscard]] std::size_t size() const noexcept { return steps_.size(); }
  [[nodiscard]] bool empty() const noexcept { return steps_.empty(); }
  [[nodiscard]] const StepRecord& operator[](std::size_t i) const noexcept { return steps_[i]; }
  [[nodiscard]] const StepRecord& back() const noexcept { return steps_.back(); }

  [[nodiscard]] auto begin() const noexcept { return steps_.begin(); }
  [[nodiscard]] auto end() const noexcept { return steps_.end(); }

  /// First step >= t where the chosen alarm fired.
  [[nodiscard]] std::optional<std::size_t> first_alarm_at_or_after(std::size_t t,
                                                                   bool adaptive) const;

  /// Number of alarm steps in [lo, hi) for the chosen detector.
  [[nodiscard]] std::size_t alarm_count(std::size_t lo, std::size_t hi, bool adaptive) const;

  /// Fraction of steps in [lo, hi) that raised an alarm (0 if range empty).
  [[nodiscard]] double alarm_rate(std::size_t lo, std::size_t hi, bool adaptive) const;

  /// First step where the true state left the safe set, if any.
  [[nodiscard]] std::optional<std::size_t> first_unsafe() const;

 private:
  std::vector<StepRecord> steps_;
};

}  // namespace awd::sim
