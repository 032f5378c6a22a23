// config.hpp — experiment configurations (Table 1 plus §6.2's testbed).
//
// One SimulatorCase bundles everything §6 specifies per simulator: the
// plant model discretized at δ, the PID gains, the actuator range U, the
// uncertainty bound ε, the safe set S, the detection threshold τ — plus
// the quantities the paper leaves implicit (sensor-noise bound, reference
// state, attack magnitudes, maximum window size w_m), which are chosen so
// the closed loop and detector operate in the regime the paper reports
// (see DESIGN.md "Substitutions" and EXPERIMENTS.md).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "attack/attack.hpp"
#include "core/status.hpp"
#include "models/lti.hpp"
#include "reach/backend.hpp"
#include "reach/sets.hpp"
#include "sim/controller.hpp"
#include "sim/pid.hpp"
#include "sim/simulator.hpp"

namespace awd::core {

using linalg::Matrix;
using linalg::Vec;

/// Attack scenarios of §6.1.1 (plus extensions).  The last four are the
/// detector-aware adversarial scenarios (attack/adversarial.hpp): an
/// attacker who knows the calibrated threshold and shapes the injection to
/// evade it.
enum class AttackKind {
  kNone,
  kBias,
  kDelay,
  kReplay,
  kRamp,
  kFreeze,
  kStealthyRamp,      ///< ramp held at stealth_margin * tau (sub-threshold)
  kJitterReplay,      ///< replay with ±replay_jitter timing wobble
  kCoordinatedBias,   ///< one direction pushed on every sensor, ramped in
  kIntermittentBias,  ///< bias duty-cycled so window means never integrate it
};

/// Stable lowercase name of an AttackKind ("bias", "stealthy_ramp", ...).
[[nodiscard]] std::string_view to_string(AttackKind kind) noexcept;

/// Complete configuration of one simulator row of Table 1.
struct SimulatorCase {
  std::string key;           ///< stable identifier, e.g. "aircraft_pitch"
  std::string display_name;  ///< Table 1 name, e.g. "Aircraft Pitch"

  models::DiscreteLti model;  ///< plant discretized at δ
  reach::Box u_range;         ///< actuator range U
  double eps = 0.0;           ///< actual process-uncertainty radius driving the plant
  /// Conservative uncertainty bound the Deadline Estimator assumes (>= eps;
  /// Table 1's ε).  Practitioners set the reachability bound above the
  /// typical disturbance to keep Def. 3.1's guarantee; 0 means "same as eps".
  double eps_reach = 0.0;
  reach::Box safe_set;        ///< safe state set S
  Vec tau;                    ///< detection threshold τ (per dimension)

  sim::PidGains pid;                        ///< Table 1 PID gains
  std::vector<std::size_t> tracked_dims;    ///< state dims the PID regulates
  Matrix output_map;                        ///< channel -> input routing
  Vec x0;                                   ///< initial state
  Vec reference;                            ///< reference state
  /// Scheduled setpoint changes (step, new reference), sorted by step.
  std::vector<std::pair<std::size_t, Vec>> reference_schedule;
  /// Sinusoidal reference components (periodic maneuvering).  Gives the
  /// mission live content; a delay/replay attack on a loop that never moves
  /// is fundamentally unobservable from residuals.
  std::vector<sim::ReferenceSine> reference_sinusoids;
  Vec sensor_noise;                         ///< per-dim sensor-noise bound

  std::size_t max_window = 40;   ///< w_m (§4.3, chosen by Fig. 7-style profiling)
  std::size_t fixed_window = 40; ///< baseline fixed-window size for comparisons
  std::size_t steps = 500;       ///< default experiment length
  bool predict_with_commanded = false;  ///< see SimulatorOptions

  // Default attack parameterization for this plant.
  std::size_t attack_start = 150;
  std::size_t attack_duration = 200;
  Vec bias;                          ///< bias-attack offset
  std::size_t delay_lag = 10;        ///< delay-attack lag (steps)
  std::size_t replay_record_start = 50;  ///< replay source segment start
  Vec ramp_slope;                    ///< ramp-attack per-step slope

  // Adversarial-scenario parameterization (attack/adversarial.hpp).
  double stealth_margin = 0.5;          ///< stealthy ramp holds at margin * tau, in (0,1)
  std::size_t stealth_horizon = 0;      ///< ramp-in steps (0 = max_window)
  std::size_t replay_jitter = 2;        ///< jittered-replay timing wobble (steps)
  std::size_t intermittent_period = 8;  ///< on/off duty-cycle length (>= 2)
  std::size_t intermittent_on = 3;      ///< on-steps per cycle, in [1, period)

  // Auto-tuner defaults (src/tune): the false-alarm rate the thresholds are
  // calibrated to and the attack-free Monte-Carlo trial count doing it.
  double target_far = 0.02;      ///< target FAR, in (0, 1)
  std::size_t tune_trials = 24;  ///< attack-free runs per FAR measurement (>= 1)

  // Reachability backend selection (reach/backend.hpp, DESIGN.md §17):
  // which deadline math serves this plant family, and — for the table
  // backend — the precomputed grid's shape.
  reach::BackendKind reach_backend = reach::BackendKind::kBox;
  std::size_t reach_table_cells = 8;  ///< kTable: uniform cells per dimension
  /// kTable: trusted-state box the grid covers.  Empty (dim 0) derives a
  /// domain per dimension from the safe set where bounded, else an
  /// x0-centered span (see make_backend_spec).
  reach::Box reach_table_domain;

  /// Fresh PID controller configured for this plant.
  [[nodiscard]] std::unique_ptr<sim::Controller> make_controller() const;

  /// Attack object for the given scenario using this case's defaults.
  [[nodiscard]] std::shared_ptr<const attack::Attack> make_attack(AttackKind kind) const;

  /// The closed loop of this case under `attack`, seeded with `seed`; the
  /// last two arguments go to sim::SimulatorOptions.
  [[nodiscard]] sim::Simulator make_simulator(
      AttackKind attack, std::uint64_t seed,
      std::shared_ptr<fault::FaultInjector> faults = nullptr,
      bool lean_records = false) const;

  /// Non-throwing configuration check: returns the first violation as a
  /// Status (kInvalidInput with a static, field-naming message), or OK.
  /// Rejects degenerate detector settings outright — max_window == 0 and
  /// tau <= 0 both silently disable detection, which a fielded monitor must
  /// refuse to start with rather than discover in the log.
  [[nodiscard]] Status check() const noexcept;

  /// Basic shape consistency checks; throws std::invalid_argument with the
  /// case key prefixed to check()'s message.
  void validate() const;
};

/// The five Table 1 simulator rows, in paper order.
[[nodiscard]] std::vector<SimulatorCase> table1_cases();

/// Look up one Table 1 case by key ("aircraft_pitch", "vehicle_turning",
/// "series_rlc", "dc_motor", "quadrotor").  Throws std::invalid_argument
/// for an unknown key.
[[nodiscard]] SimulatorCase simulator_case(std::string_view key);

/// §6.2's reduced-scale RC-car testbed configuration.
[[nodiscard]] SimulatorCase testbed_case();

/// Bridge a case to the reach layer: the reach::BackendSpec describing the
/// deadline backend this case asks for (model, actuator box, the
/// conservative ε_reach, safe set, the case's backend selection and table
/// grid, plus the caller's per-run deadline knobs).  An empty
/// reach_table_domain derives one here: per dimension the safe-set bounds
/// when bounded, else an x0-centered span max(1, 4|x0_i| + 1) wide each way.
[[nodiscard]] reach::BackendSpec make_backend_spec(const SimulatorCase& scase,
                                                   double init_radius,
                                                   std::size_t budget_steps);

}  // namespace awd::core
