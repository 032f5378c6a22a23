// adversarial.hpp — detector-aware attack scenarios (DESIGN.md §16.2).
//
// The attacks in attack.hpp model §6.1.1's fixed scenarios: the attacker
// picks a bias/lag/segment once and replays it blindly.  This header models
// the stronger threat the auto-tuner (src/tune) exists to stress: an
// attacker who *knows the calibrated threshold* and shapes the injection to
// stay just under it, hide inside replayed history, coordinate across every
// sensor, or duty-cycle the corruption so window means never accumulate.
//
// All attacks here keep the Attack contract: immutable after construction,
// thread-safe, apply_into bit-identical to apply.
#pragma once

#include <cstdint>
#include <memory>

#include "attack/attack.hpp"

namespace awd::attack {

/// Threshold-aware ramp: the per-dimension bias grows linearly for
/// `horizon` steps and then holds at margin * tau — strictly inside the
/// detector's threshold band, so the windowed residual means it induces
/// stay sub-threshold while the state drifts.
///
/// The delivered measurement at the i-th attacked step (i = t - start) is
///   clean + slope * min(i + 1, horizon),   slope = margin * tau / horizon.
class StealthyRampAttack final : public Attack {
 public:
  /// Throws std::invalid_argument on zero duration, margin outside (0, 1),
  /// zero horizon, or a tau with any non-positive / non-finite entry.
  StealthyRampAttack(AttackWindow window, Vec tau, double margin, std::size_t horizon);

  [[nodiscard]] Vec apply(std::size_t t, const Vec& clean,
                          const std::vector<Vec>& history) const override;
  void apply_into(std::size_t t, const Vec& clean, const std::vector<Vec>& history,
                  Vec& out) const override;
  [[nodiscard]] bool needs_history() const noexcept override { return false; }
  [[nodiscard]] bool active(std::size_t t) const override { return window_.active(t); }
  [[nodiscard]] std::size_t start() const override { return window_.start; }
  [[nodiscard]] std::string name() const override { return "stealthy_ramp"; }

  [[nodiscard]] const Vec& slope() const noexcept { return slope_; }
  [[nodiscard]] double margin() const noexcept { return margin_; }
  [[nodiscard]] std::size_t horizon() const noexcept { return horizon_; }

 private:
  AttackWindow window_;
  Vec slope_;
  double margin_;
  std::size_t horizon_;
};

/// Replay with timing jitter: like ReplayAttack, but the source index
/// wobbles inside a ±jitter band, breaking the phase alignment a plain
/// replay detector could lock onto.  The offset at step t is a pure
/// function of (seed, t), so the attack stays deterministic and immutable.
class JitteredReplayAttack final : public Attack {
 public:
  /// Throws std::invalid_argument on zero duration, a jitter band reaching
  /// before measurement 0 (jitter > record_start), or a recorded segment
  /// whose jittered end could overlap the attack window
  /// (record_start + duration + jitter must be <= window.start).
  JitteredReplayAttack(AttackWindow window, std::size_t record_start, std::size_t jitter,
                       std::uint64_t seed);

  [[nodiscard]] Vec apply(std::size_t t, const Vec& clean,
                          const std::vector<Vec>& history) const override;
  void apply_into(std::size_t t, const Vec& clean, const std::vector<Vec>& history,
                  Vec& out) const override;
  [[nodiscard]] bool active(std::size_t t) const override { return window_.active(t); }
  [[nodiscard]] std::size_t start() const override { return window_.start; }
  [[nodiscard]] std::string name() const override { return "jitter_replay"; }

  [[nodiscard]] std::size_t jitter() const noexcept { return jitter_; }
  [[nodiscard]] std::size_t record_start() const noexcept { return record_start_; }

  /// Signed source-index offset for step t, in [-jitter, +jitter].
  [[nodiscard]] std::ptrdiff_t offset_at(std::size_t t) const noexcept;

 private:
  AttackWindow window_;
  std::size_t record_start_;
  std::size_t jitter_;
  std::uint64_t seed_;
};

/// Coordinated multi-sensor bias: one attacker-chosen direction pushed on
/// every sensor simultaneously, ramped in over `ramp_in` steps so the onset
/// has no detectable step edge.  The delivered measurement is
///   clean + unit(direction) * magnitude * min(1, (i + 1) / ramp_in).
class CoordinatedBiasAttack final : public Attack {
 public:
  /// Throws std::invalid_argument on zero duration, a zero or non-finite
  /// direction, a non-positive magnitude, or zero ramp_in.
  CoordinatedBiasAttack(AttackWindow window, Vec direction, double magnitude,
                        std::size_t ramp_in);

  [[nodiscard]] Vec apply(std::size_t t, const Vec& clean,
                          const std::vector<Vec>& history) const override;
  void apply_into(std::size_t t, const Vec& clean, const std::vector<Vec>& history,
                  Vec& out) const override;
  [[nodiscard]] bool needs_history() const noexcept override { return false; }
  [[nodiscard]] bool active(std::size_t t) const override { return window_.active(t); }
  [[nodiscard]] std::size_t start() const override { return window_.start; }
  [[nodiscard]] std::string name() const override { return "coordinated_bias"; }

  /// Normalized attack direction (unit 2-norm).
  [[nodiscard]] const Vec& direction() const noexcept { return unit_; }
  [[nodiscard]] double magnitude() const noexcept { return magnitude_; }
  [[nodiscard]] std::size_t ramp_in() const noexcept { return ramp_in_; }

 private:
  AttackWindow window_;
  Vec unit_;
  double magnitude_;
  std::size_t ramp_in_;
};

/// Intermittent on/off attack: duty-cycles an inner attack with period
/// `period`, active for the first `on_steps` of each cycle.  Off-phase
/// steps deliver the clean measurement bit-for-bit, so window means never
/// integrate a sustained offset — the classic strategy against
/// mean-over-window tests.
class IntermittentAttack final : public Attack {
 public:
  /// Throws std::invalid_argument on zero duration, a null inner attack,
  /// period < 2, or on_steps outside [1, period).
  IntermittentAttack(AttackWindow window, std::shared_ptr<const Attack> inner,
                     std::size_t period, std::size_t on_steps);

  [[nodiscard]] Vec apply(std::size_t t, const Vec& clean,
                          const std::vector<Vec>& history) const override;
  void apply_into(std::size_t t, const Vec& clean, const std::vector<Vec>& history,
                  Vec& out) const override;
  [[nodiscard]] bool needs_history() const noexcept override {
    return inner_->needs_history();
  }
  /// Active only during on-phases (off-phase steps are clean).
  [[nodiscard]] bool active(std::size_t t) const override {
    return window_.active(t) && on_phase(t);
  }
  [[nodiscard]] std::size_t start() const override { return window_.start; }
  [[nodiscard]] std::string name() const override {
    return "intermittent_" + inner_->name();
  }

  [[nodiscard]] std::size_t period() const noexcept { return period_; }
  [[nodiscard]] std::size_t on_steps() const noexcept { return on_steps_; }

  /// True when step t falls in the on-phase of its cycle.
  [[nodiscard]] bool on_phase(std::size_t t) const noexcept;

 private:
  AttackWindow window_;
  std::shared_ptr<const Attack> inner_;
  std::size_t period_;
  std::size_t on_steps_;
};

}  // namespace awd::attack
