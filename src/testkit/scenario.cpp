#include "testkit/scenario.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "linalg/eig.hpp"
#include "reach/sets.hpp"

namespace awd::testkit {

namespace {

/// Multiply every nonzero A entry by (1 + U(-jitter, jitter)).  Zeros are
/// structural (integrator chains, uncoupled states) and stay zero so the
/// perturbed plant remains physically shaped.
linalg::Matrix jitter_dynamics(const linalg::Matrix& a, double jitter, PropRng& rng) {
  linalg::Matrix out = a;
  for (std::size_t r = 0; r < out.rows(); ++r) {
    for (std::size_t c = 0; c < out.cols(); ++c) {
      if (out(r, c) != 0.0) out(r, c) *= 1.0 + rng.uniform(-jitter, jitter);
    }
  }
  return out;
}

}  // namespace

std::string GenLimits::flags() const {
  const GenLimits def;
  std::string s;
  const auto add = [&s](const std::string& flag) {
    if (!s.empty()) s += ' ';
    s += flag;
  };
  if (max_steps != def.max_steps) add("--max-steps=" + std::to_string(max_steps));
  if (window_cap != def.window_cap) add("--max-window=" + std::to_string(window_cap));
  if (max_state_dim != def.max_state_dim) add("--max-dim=" + std::to_string(max_state_dim));
  if (!allow_attack) add("--no-attack");
  if (!allow_perturbation) add("--no-perturb");
  return s;
}

std::string Scenario::describe() const {
  std::ostringstream os;
  os << family << " n=" << scase.model.state_dim()
     << " attack=" << core::to_string(attack) << "@" << scase.attack_start << "+"
     << scase.attack_duration << " w_m=" << scase.max_window
     << " w_fixed=" << scase.fixed_window << " steps=" << scase.steps
     << " tau_x" << tau_scale << " noise_x" << noise_scale << " eps_x" << eps_scale
     << " jitter=" << dynamics_jitter << " budget=" << deadline_budget
     << " sim_seed=" << sim_seed;
  return os.str();
}

const std::vector<std::string>& plant_families() {
  static const std::vector<std::string> kFamilies = {
      "aircraft_pitch", "vehicle_turning", "series_rlc", "dc_motor", "quadrotor"};
  return kFamilies;
}

namespace {

thread_local ScenarioLog* active_log = nullptr;

void log_scenario(const Scenario& sc) {
  if (active_log != nullptr) active_log->scenarios.push_back(sc);
}

Scenario generate_unlogged(PropRng& rng, const GenLimits& limits,
                           const ScenarioOptions& options) {
  // Pick a plant family small enough for the current limits.  The shrink
  // loop lowers max_state_dim to steer failures toward low-dimensional
  // plants; at least vehicle_turning (n = 1) always qualifies.
  std::vector<std::string> eligible;
  for (const std::string& family : plant_families()) {
    if (core::simulator_case(family).model.state_dim() <= limits.max_state_dim) {
      eligible.push_back(family);
    }
  }
  if (eligible.empty()) eligible.push_back("vehicle_turning");

  Scenario sc;
  sc.family = eligible[rng.below(eligible.size())];
  sc.scase = core::simulator_case(sc.family);
  core::SimulatorCase& c = sc.scase;

  // Perturb the dynamics while staying no less stable than the template
  // (the quadrotor carries marginal integrator modes at |λ| = 1, so the
  // ceiling is max(1, ρ_template), not 1).  A failed eigenvalue iteration
  // or a destabilizing draw reverts to the template matrix; the draw count
  // is unconditional either way, so the stream stays reproducible.
  if (limits.allow_perturbation && rng.chance(0.8)) {
    const double jitter = rng.uniform(0.005, 0.05);
    const linalg::Matrix perturbed = jitter_dynamics(c.model.A, jitter, rng);
    try {
      const double rho0 = linalg::spectral_radius(c.model.A);
      const double ceiling = std::max(1.0, rho0);
      double rho = linalg::spectral_radius(perturbed);
      if (rho <= ceiling) {
        c.model.A = perturbed;
        sc.dynamics_jitter = jitter;
      } else {
        // Uniform rescale pulls every eigenvalue back under the ceiling.
        const linalg::Matrix rescaled = perturbed * (ceiling / rho * (1.0 - 1e-9));
        rho = linalg::spectral_radius(rescaled);
        if (rho <= ceiling) {
          c.model.A = rescaled;
          sc.dynamics_jitter = jitter;
        }
      }
    } catch (const std::runtime_error&) {
      // Eigenvalue iteration failed to converge: keep the template plant.
    }
  }

  // Noise regime and detector thresholds.
  sc.tau_scale = rng.uniform(options.tau_scale_lo, options.tau_scale_hi);
  c.tau *= sc.tau_scale;
  sc.noise_scale = rng.uniform(options.noise_scale_lo, options.noise_scale_hi);
  c.sensor_noise *= sc.noise_scale;
  sc.eps_scale = rng.uniform(options.eps_scale_lo, options.eps_scale_hi);
  c.eps *= sc.eps_scale;
  c.eps_reach = c.eps * rng.uniform(1.0, 1.4);

  // Shift the actuator range off-center half the time.  Table 1's U boxes
  // are all symmetric, which zeroes every cumulative-drift term in the
  // deadline tables; an asymmetric U exercises those terms too.
  if (options.shift_input_center && rng.chance(0.5)) {
    linalg::Vec center = c.u_range.center();
    const linalg::Vec half = c.u_range.half_widths();
    for (std::size_t i = 0; i < center.size(); ++i) {
      center[i] += rng.uniform(-0.2, 0.2) * half[i];
    }
    c.u_range = reach::Box::from_center_halfwidths(center, half);
  }

  // Window bounds and run length under the shrink limits.
  const std::size_t w_hi = std::max<std::size_t>(4, std::min<std::size_t>(48, limits.window_cap));
  c.max_window = rng.range(std::min<std::size_t>(4, w_hi), w_hi);
  c.fixed_window = rng.range(1, c.max_window);
  const std::size_t steps_lo = std::min(options.min_steps, limits.max_steps);
  c.steps = rng.range(std::max<std::size_t>(steps_lo, 8), std::max<std::size_t>(limits.max_steps, 8));

  // Attack schedule: random onset after a quarter of the run, random
  // duration fitting inside it, magnitudes scaled off the template values.
  const bool attacked = limits.allow_attack && c.steps >= 12 && rng.chance(0.75);
  if (attacked) {
    constexpr core::AttackKind kKinds[] = {
        core::AttackKind::kBias, core::AttackKind::kDelay, core::AttackKind::kReplay,
        core::AttackKind::kRamp, core::AttackKind::kFreeze};
    sc.attack = kKinds[rng.below(std::size(kKinds))];
    const std::size_t start_lo = std::min<std::size_t>(c.steps / 4 + 1, c.steps - 2);
    c.attack_start = rng.range(start_lo, c.steps - 2);
    c.attack_duration = rng.range(1, c.steps - c.attack_start);
    c.bias *= rng.uniform(0.3, 3.0);
    c.ramp_slope *= rng.uniform(0.3, 3.0);
    c.delay_lag = rng.range(1, 12);
    c.replay_record_start = rng.below(c.attack_start);
  } else {
    sc.attack = core::AttackKind::kNone;
    c.attack_start = 0;
    c.attack_duration = 0;
  }

  if (options.allow_budget && rng.chance(0.25)) {
    sc.deadline_budget = rng.range(50, 400);
  }

  sc.sim_seed = rng.fork(0x7e57a11u);

  c.validate();
  return sc;
}

}  // namespace

ScenarioLog::ScenarioLog() : prev_(active_log) { active_log = this; }

ScenarioLog::~ScenarioLog() { active_log = prev_; }

void note_draws(std::string_view line) {
  if (active_log != nullptr) active_log->notes.emplace_back(line);
}

Scenario generate_scenario(PropRng& rng, const GenLimits& limits,
                           const ScenarioOptions& options) {
  Scenario sc = generate_unlogged(rng, limits, options);
  log_scenario(sc);
  return sc;
}

const std::vector<core::AttackKind>& adversarial_attack_kinds() {
  static const std::vector<core::AttackKind> kKinds = {
      core::AttackKind::kStealthyRamp, core::AttackKind::kJitterReplay,
      core::AttackKind::kCoordinatedBias, core::AttackKind::kIntermittentBias};
  return kKinds;
}

Scenario generate_adversarial_scenario(PropRng& rng, const GenLimits& limits,
                                       const ScenarioOptions& options) {
  Scenario sc = generate_unlogged(rng, limits, options);
  core::SimulatorCase& c = sc.scase;

  // Draw the adversarial kind and every attack parameter unconditionally,
  // so the stream position past this generator never depends on which
  // branch a shrink pass takes.
  const std::vector<core::AttackKind>& kinds = adversarial_attack_kinds();
  const core::AttackKind kind = kinds[rng.below(kinds.size())];
  const double margin = rng.uniform(0.2, 0.9);
  const bool horizon_tracks_window = rng.chance(0.4);  // 0 = follow max_window
  const std::size_t horizon = rng.range(4, 40);
  const std::size_t jitter = rng.range(1, 3);
  const std::size_t period = rng.range(2, 12);
  const std::size_t on_steps = rng.range(1, period - 1);
  const std::size_t start_draw = rng.next();
  const std::size_t duration_draw = rng.next();
  const std::size_t record_draw = rng.next();

  if (limits.allow_attack && c.steps >= 12) {
    sc.attack = kind;
    // Fresh window: the base generator only schedules an attack 75% of the
    // time, and adversarial properties need one every trial.
    const std::size_t start_lo = std::min<std::size_t>(c.steps / 4 + 1, c.steps - 2);
    c.attack_start = start_lo + start_draw % (c.steps - 2 - start_lo + 1);
    c.attack_duration = 1 + duration_draw % (c.steps - c.attack_start);
    c.stealth_margin = margin;
    c.stealth_horizon = horizon_tracks_window ? 0 : horizon;
    // Keep the jittered band inside recorded history and strictly before
    // the attack (make_attack clamps the duration to what fits; leaving
    // less than one step would make it throw).
    c.replay_record_start = record_draw % c.attack_start;
    const std::size_t jitter_cap =
        std::min(c.replay_record_start, c.attack_start - c.replay_record_start - 1);
    c.replay_jitter = std::min(jitter, jitter_cap);
    c.intermittent_period = period;
    c.intermittent_on = on_steps;
  } else {
    sc.attack = core::AttackKind::kNone;
    c.attack_start = 0;
    c.attack_duration = 0;
  }

  c.validate();
  log_scenario(sc);
  return sc;
}

}  // namespace awd::testkit
