// scenario.hpp — seeded random generation of detection-pipeline scenarios.
//
// A Scenario is one fully specified run of the paper's pipeline: a stable
// LTI plant derived from a Table 1 template with perturbed dynamics, a noise
// regime, an attack schedule, and a detector configuration (window bounds,
// thresholds, search budget).  Generation is a pure function of the PropRng
// stream, so a trial seed is a complete replay token.
//
// GenLimits is the shrinking interface: when a property fails, the runner
// re-runs the same seed under progressively tighter limits (fewer steps,
// smaller windows, no attack, no dynamics perturbation, lower-dimensional
// plants) and reports the tightest limits that still fail — a minimal
// failing case without scenario serialization.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/config.hpp"
#include "testkit/rng.hpp"

namespace awd::testkit {

/// Upper bounds the shrinker tightens; generation respects them.
struct GenLimits {
  std::size_t max_steps = 220;       ///< run length cap
  std::size_t window_cap = 48;       ///< w_m cap
  std::size_t max_state_dim = 12;    ///< excludes plant families above this
  bool allow_attack = true;          ///< false forces AttackKind::kNone
  bool allow_perturbation = true;    ///< false keeps template dynamics exactly

  /// Command-line fragment reproducing these limits ("" when default).
  [[nodiscard]] std::string flags() const;

  [[nodiscard]] friend bool operator==(const GenLimits&, const GenLimits&) = default;
};

/// Per-property generation tweaks (e.g. the FP-budget property needs
/// conservative thresholds, the deadline properties need no attack at all).
struct ScenarioOptions {
  double tau_scale_lo = 0.6;
  double tau_scale_hi = 2.5;
  double noise_scale_lo = 0.5;
  double noise_scale_hi = 1.4;
  double eps_scale_lo = 0.5;
  double eps_scale_hi = 1.5;
  std::size_t min_steps = 70;
  bool allow_budget = true;        ///< deadline search budget sometimes nonzero
  bool shift_input_center = true;  ///< perturb U off-center (nonzero drift terms)
};

/// One generated pipeline configuration.
struct Scenario {
  core::SimulatorCase scase;
  std::string family;                          ///< template key
  core::AttackKind attack = core::AttackKind::kNone;
  std::uint64_t sim_seed = 0;                  ///< simulator noise seed
  std::size_t deadline_budget = 0;             ///< reach-box budget (0 = unlimited)

  // Recorded generation knobs (for failure reports).
  double tau_scale = 1.0;
  double noise_scale = 1.0;
  double eps_scale = 1.0;
  double dynamics_jitter = 0.0;

  /// One-line summary for failure messages and reports.
  [[nodiscard]] std::string describe() const;
};

/// The Table 1 template keys scenarios draw from.
[[nodiscard]] const std::vector<std::string>& plant_families();

/// Generate one valid scenario (scase.validate() passes, plant is Schur
/// stable up to the template's own spectral radius).  Pure in (rng, limits,
/// options): identical streams produce identical scenarios.
[[nodiscard]] Scenario generate_scenario(PropRng& rng, const GenLimits& limits,
                                         const ScenarioOptions& options = {});

/// The detector-aware attack kinds the adversarial generator draws from.
[[nodiscard]] const std::vector<core::AttackKind>& adversarial_attack_kinds();

/// Generate a scenario whose attack is drawn from the adversarial pool
/// (stealthy ramp, jittered replay, coordinated bias, intermittent bias)
/// with randomized attack parameters.  Built on generate_scenario with
/// additional draws, so it shrinks through the same GenLimits: tightening
/// limits still yields valid scenarios, and `allow_attack = false` degrades
/// to an attack-free run exactly like the base generator.
[[nodiscard]] Scenario generate_adversarial_scenario(PropRng& rng, const GenLimits& limits,
                                                     const ScenarioOptions& options = {});

/// What a property generated, for `awd_prop_fuzz --describe`: while a
/// ScenarioLog is alive on a thread, every scenario generated there lands in
/// `scenarios` (as generated, before the property edits it) and every
/// note_draws() line in `notes`.  Logs nest; the innermost one records.
class ScenarioLog {
 public:
  ScenarioLog();
  ~ScenarioLog();
  ScenarioLog(const ScenarioLog&) = delete;
  ScenarioLog& operator=(const ScenarioLog&) = delete;

  std::vector<Scenario> scenarios;
  std::vector<std::string> notes;

 private:
  ScenarioLog* prev_;
};

/// Record a property's own draws (e.g. the Thm-1 shrink geometry) in this
/// thread's ScenarioLog; a no-op without one.
void note_draws(std::string_view line);

}  // namespace awd::testkit
