// properties_detect.cpp — oracles for the Data Logger (§5) and the
// Adaptive Detector (§4.2): the planted-escape Theorem-1 invariant and the
// bitwise differentials against the flat-history reference implementations.
#include <cmath>
#include <cstddef>
#include <limits>
#include <optional>
#include <sstream>
#include <string>

#include "detect/adaptive.hpp"
#include "detect/logger.hpp"
#include "detect/window_detector.hpp"
#include "testkit/properties.hpp"
#include "testkit/reference.hpp"

namespace awd::testkit::props {

namespace {

using detect::AdaptiveDecision;
using detect::AdaptiveDetector;
using detect::DataLogger;

std::string vec_str(const Vec& v) {
  std::ostringstream os;
  os.precision(17);
  os << "[";
  for (std::size_t i = 0; i < v.size(); ++i) os << (i ? ", " : "") << v[i];
  os << "]";
  return os.str();
}

/// Inject NaN/Inf into one random dimension with small probability; returns
/// whether the vector was corrupted.
bool maybe_corrupt(Vec& v, PropRng& rng, double p) {
  if (v.empty() || !rng.chance(p)) return false;
  const double bad = rng.chance(0.5) ? std::numeric_limits<double>::quiet_NaN()
                                     : std::numeric_limits<double>::infinity();
  v[rng.below(v.size())] = rng.chance(0.5) ? bad : -bad;
  return true;
}

/// The Thm-1 draws of a planted-escape property, for --describe.
void note_shrink_geometry(std::size_t s, std::size_t d, std::size_t w_big,
                          std::size_t w_small, std::size_t T, std::size_t w_m) {
  note_draws("spike at s=" + std::to_string(s) + " (dim " + std::to_string(d) +
             "), shrink w_big=" + std::to_string(w_big) + " -> w_small=" +
             std::to_string(w_small) + " at T=" + std::to_string(T) + " (w_m=" +
             std::to_string(w_m) + ")");
}

}  // namespace

PropertyResult no_escape_shrink(std::uint64_t seed, const GenLimits& limits) {
  PropRng rng(seed);
  GenLimits l = limits;
  l.allow_attack = false;  // the spike is planted directly in the residuals
  ScenarioOptions opt;
  opt.allow_budget = false;
  const Scenario sc = generate_scenario(rng, l, opt);
  const core::SimulatorCase& c = sc.scase;
  const std::size_t n = c.model.state_dim();
  const std::size_t w_m = c.max_window;

  // Thm-1 setup: a spike of magnitude m = 1.45·τ·(w_small+1) alarms the
  // window test at size w_small (mean 1.45·τ > τ) but not at size w_big
  // whenever 1.5·(w_small+1) <= w_big+1 (mean <= 0.97·τ, clear of
  // floating-point rounding).  The detector runs at w_big until step T,
  // then the deadline forces a shrink to w_small; the spike is planted in
  // the escaped region [T-w_big-1, T-w_small-1], so only the §4.2.1
  // complementary sweep can catch it.
  const std::size_t w_small_cap = 2 * (w_m + 1) / 3 - 1;  // 1.5(w_small+1) <= w_m+1
  const std::size_t w_small = rng.range(0, w_small_cap);
  const std::size_t w_big_min = (3 * (w_small + 1) + 1) / 2 - 1;  // ceil(1.5(w_small+1))-1
  const std::size_t w_big = rng.range(w_big_min, w_m);
  const std::size_t s = w_big + rng.range(0, 2 * w_m);  // spike step, windows full
  // T - w_big - 1 is the deepest escaped point; hit it exactly often so an
  // off-by-one at the sweep start cannot hide.
  const std::size_t T =
      s + (rng.chance(0.4) ? w_big + 1 : rng.range(w_small + 1, w_big + 1));
  const std::size_t d = rng.below(n);
  const double m = 1.45 * c.tau[d] * static_cast<double>(w_small + 1);
  note_shrink_geometry(s, d, w_big, w_small, T, w_m);

  DataLogger logger(c.model, w_m);
  AdaptiveDetector det(c.tau, w_m);
  const Vec u(c.model.input_dim());
  Vec prev_est;
  for (std::size_t t = 0; t <= T; ++t) {
    // Residual-exact stream: est_t equals the logger's own prediction
    // (residual 0) everywhere except the spike step.
    Vec est = (t == 0) ? c.x0 : c.model.step(prev_est, u);
    if (t == s) est[d] -= m;
    (void)logger.log(t, est, u);
    const std::size_t deadline = (t < T) ? w_big : w_small;
    const AdaptiveDecision dec = det.step(logger, t, deadline);
    if (t < T && dec.any_alarm()) {
      return PropertyResult::fail(
          "premature alarm at t=" + std::to_string(t) + " (window " +
          std::to_string(dec.window) + ", spike s=" + std::to_string(s) +
          ", m=" + std::to_string(m) + "); " + sc.describe());
    }
    if (t == T) {
      if (dec.alarm) {
        return PropertyResult::fail(
            "current-step test at T=" + std::to_string(T) + " (w_small=" +
            std::to_string(w_small) + ") unexpectedly covered the spike at s=" +
            std::to_string(s) + "; " + sc.describe());
      }
      if (!dec.complementary_alarm) {
        return PropertyResult::fail(
            "ESCAPE: spike at s=" + std::to_string(s) + " (dim " + std::to_string(d) +
            ", m=" + std::to_string(m) + ") survived the shrink w_big=" +
            std::to_string(w_big) + " -> w_small=" + std::to_string(w_small) +
            " at T=" + std::to_string(T) + " (evaluations=" +
            std::to_string(dec.evaluations) + "); " + sc.describe());
      }
    }
    prev_est = est;
  }
  return PropertyResult::pass();
}

PropertyResult sweep_tie_not_an_alarm(std::uint64_t seed, const GenLimits& limits) {
  PropRng rng(seed);
  GenLimits l = limits;
  l.allow_attack = false;  // the spike is planted directly in the residuals
  ScenarioOptions opt;
  opt.allow_budget = false;
  const Scenario sc = generate_scenario(rng, l, opt);
  const core::SimulatorCase& c = sc.scase;
  const std::size_t n = c.model.state_dim();
  const std::size_t w_m = c.max_window;

  // The no_escape_shrink geometry (shrink w_big -> w_small at T, spike at s
  // in the escaped region), but with τ[d] set to the spike's mean over a
  // w_small window.  Every sweep window that covers the spike holds it and
  // w_small zeros, so each has exactly that mean: the §4.1 test alarms only
  // when the mean *exceeds* τ, so the sweep must stay silent at the tie and
  // must alarm once τ[d] is one ulp lower.
  const std::size_t w_small = rng.chance(0.3) ? 0 : rng.range(0, w_m - 1);
  const std::size_t w_big = rng.range(w_small + 1, w_m);
  const std::size_t s = w_big + rng.range(0, 2 * w_m);
  const std::size_t T =
      s + (rng.chance(0.4) ? w_big + 1 : rng.range(w_small + 1, w_big + 1));
  const std::size_t d = rng.below(n);
  const double m = 1.45 * c.tau[d] * static_cast<double>(w_small + 1);
  note_shrink_geometry(s, d, w_big, w_small, T, w_m);

  DataLogger logger(c.model, w_m);
  const Vec u(c.model.input_dim());
  Vec prev_est;
  Vec tau_tie;
  Vec tau_below;
  std::optional<AdaptiveDetector> at_tie;
  std::optional<AdaptiveDetector> below_tie;
  for (std::size_t t = 0; t <= T; ++t) {
    // Residual-exact stream, as in no_escape_shrink.
    Vec est = (t == 0) ? c.x0 : c.model.step(prev_est, u);
    if (t == s) est[d] -= m;
    (void)logger.log(t, est, u);
    prev_est = est;
    if (t < s) continue;
    if (t == s) {
      tau_tie = c.tau;
      tau_tie[d] = logger.window_mean(s, w_small)[d];
      if (!(tau_tie[d] > 0.0)) {
        return PropertyResult::fail("spike of m=" + std::to_string(m) +
                                    " left no residual; " + sc.describe());
      }
      tau_below = tau_tie;
      tau_below[d] = std::nextafter(tau_tie[d], 0.0);
      if (detect::evaluate_window(logger, s, w_small, tau_tie).alarm ||
          !detect::evaluate_window(logger, s, w_small, tau_below).alarm) {
        return PropertyResult::fail("window test at s=" + std::to_string(s) +
                                    " does not split at the tie; " + sc.describe());
      }
      at_tie.emplace(tau_tie, w_m);
      below_tie.emplace(tau_below, w_m);
    }
    const std::size_t deadline = (t < T) ? w_big : w_small;
    const AdaptiveDecision tie = at_tie->step(logger, t, deadline);
    const AdaptiveDecision below = below_tie->step(logger, t, deadline);
    if (tie.any_alarm() || (t < T && below.any_alarm())) {
      std::ostringstream os;
      os.precision(17);
      os << "alarm at t=" << t << " with tau[" << d << "]=" << tau_tie[d]
         << (tie.any_alarm() ? " (the tie)" : " minus one ulp (premature)")
         << ", spike s=" << s << ", w_big=" << w_big << " -> w_small=" << w_small
         << " at T=" << T << "; " << sc.describe();
      return PropertyResult::fail(os.str());
    }
    if (t == T && !below.complementary_alarm) {
      return PropertyResult::fail(
          "ESCAPE: sweep at T=" + std::to_string(T) + " missed the spike at s=" +
          std::to_string(s) + " one ulp above tau (w_big=" + std::to_string(w_big) +
          " -> w_small=" + std::to_string(w_small) + "); " + sc.describe());
    }
  }
  return PropertyResult::pass();
}

PropertyResult adaptive_matches_reference(std::uint64_t seed, const GenLimits& limits) {
  PropRng rng(seed);
  const Scenario sc = generate_scenario(rng, limits, {});
  const core::SimulatorCase& c = sc.scase;
  const std::size_t n = c.model.state_dim();
  const std::size_t w_m = c.max_window;
  const std::size_t steps = std::min<std::size_t>(c.steps, 150);

  DataLogger logger(c.model, w_m);
  AdaptiveDetector det(c.tau, w_m);
  RefLog ref_log(c.model, w_m);
  RefAdaptive ref_det(c.tau, w_m);

  const Vec u_half = c.u_range.half_widths();
  const Vec u_center = c.u_range.center();
  Vec prev_est = c.x0;
  for (std::size_t t = 0; t < steps; ++t) {
    // Residuals hover around the alarm boundary: the estimate is the model
    // prediction plus a ball of radius up to 3·max(τ).
    Vec u = u_center + rng.in_box(u_half);
    Vec est = (t == 0) ? c.x0
                       : c.model.step(prev_est, u) +
                             rng.in_ball(n, c.tau.norm_inf() * rng.uniform(0.0, 3.0));
    maybe_corrupt(est, rng, 0.05);
    maybe_corrupt(u, rng, 0.03);
    // Random deadline schedule, sometimes above w_m to exercise the clamp.
    const std::size_t deadline = rng.range(0, w_m + 5);

    const core::Status st = logger.log_checked(t, est, u);
    if (!st.is_ok()) {
      return PropertyResult::fail("log_checked rejected a contiguous step: " +
                                  std::string(st.message()) + "; " + sc.describe());
    }
    ref_log.log(t, est, u);
    const AdaptiveDecision got = det.step(logger, t, deadline);
    const RefDecision want = ref_det.step(ref_log, t, deadline);

    if (got.window != want.window || got.alarm != want.alarm ||
        got.complementary_alarm != want.complementary_alarm ||
        got.evaluations != want.evaluations ||
        !(got.mean_residual == want.mean_residual)) {
      std::ostringstream os;
      os << "adaptive diverged from reference at t=" << t << " (deadline=" << deadline
         << "): window " << got.window << " vs " << want.window << ", alarm "
         << got.alarm << " vs " << want.alarm << ", comp " << got.complementary_alarm
         << " vs " << want.complementary_alarm << ", evals " << got.evaluations
         << " vs " << want.evaluations << ", mean " << vec_str(got.mean_residual)
         << " vs " << vec_str(want.mean_residual) << "; " << sc.describe();
      return PropertyResult::fail(os.str());
    }
    // The sanitized stored estimate feeds the next prediction.
    prev_est = logger.entry(t).estimate;
  }
  if (logger.quarantined_count() != ref_log.quarantined_count()) {
    return PropertyResult::fail(
        "quarantine count diverged: " + std::to_string(logger.quarantined_count()) +
        " vs " + std::to_string(ref_log.quarantined_count()) + "; " + sc.describe());
  }
  return PropertyResult::pass();
}

PropertyResult logger_matches_reference(std::uint64_t seed, const GenLimits& limits) {
  PropRng rng(seed);
  const Scenario sc = generate_scenario(rng, limits, {});
  const core::SimulatorCase& c = sc.scase;
  const std::size_t n = c.model.state_dim();
  const std::size_t w_m = c.max_window;
  const std::size_t steps = std::min<std::size_t>(c.steps, 150);

  DataLogger logger(c.model, w_m);
  RefLog ref(c.model, w_m);

  const Vec u_half = c.u_range.half_widths();
  const Vec u_center = c.u_range.center();
  Vec prev_est = c.x0;
  for (std::size_t t = 0; t < steps; ++t) {
    Vec u = u_center + rng.in_box(u_half);
    Vec est = (t == 0) ? c.x0
                       : c.model.step(prev_est, u) +
                             rng.in_ball(n, c.tau.norm_inf() * rng.uniform(0.0, 3.0));
    maybe_corrupt(est, rng, 0.08);
    maybe_corrupt(u, rng, 0.04);

    const core::Status st = logger.log_checked(t, est, u);
    if (!st.is_ok()) {
      return PropertyResult::fail("log_checked rejected a contiguous step: " +
                                  std::string(st.message()) + "; " + sc.describe());
    }
    ref.log(t, est, u);

    const detect::LogEntry& ge = logger.entry(t);
    const RefEntry& we = ref.entry(t);
    if (ge.quarantined != we.quarantined || !(ge.estimate == we.estimate) ||
        !(ge.residual == we.residual) || !(ge.predicted == we.predicted)) {
      return PropertyResult::fail(
          "entry diverged at t=" + std::to_string(t) + ": quarantined " +
          std::to_string(ge.quarantined) + " vs " + std::to_string(we.quarantined) +
          ", residual " + vec_str(ge.residual) + " vs " + vec_str(we.residual) + "; " +
          sc.describe());
    }

    // Window means, retention, and trusted seeds at random probe points.
    for (int probe = 0; probe < 3; ++probe) {
      const std::size_t w = rng.range(0, w_m);
      if (!(logger.window_mean(t, w) == ref.window_mean(t, w))) {
        return PropertyResult::fail(
            "window_mean(t=" + std::to_string(t) + ", w=" + std::to_string(w) +
            ") diverged: " + vec_str(logger.window_mean(t, w)) + " vs " +
            vec_str(ref.window_mean(t, w)) + "; " + sc.describe());
      }
      const auto got_seed = logger.trusted_state(t, w);
      const auto want_seed = ref.trusted_state(t, w);
      if (got_seed.has_value() != want_seed.has_value() ||
          (got_seed && !(*got_seed == *want_seed))) {
        return PropertyResult::fail(
            "trusted_state(t=" + std::to_string(t) + ", w=" + std::to_string(w) +
            ") diverged (have " + std::to_string(got_seed.has_value()) + " vs " +
            std::to_string(want_seed.has_value()) + "); " + sc.describe());
      }
      const std::size_t back = rng.range(0, w_m + 3);
      const std::size_t probe_t = t >= back ? t - back : 0;
      if (logger.has(probe_t) != ref.has(probe_t)) {
        return PropertyResult::fail("has(" + std::to_string(probe_t) +
                                    ") diverged at t=" + std::to_string(t) + "; " +
                                    sc.describe());
      }
    }
    prev_est = logger.entry(t).estimate;
  }
  if (logger.quarantined_count() != ref.quarantined_count()) {
    return PropertyResult::fail(
        "quarantine count diverged: " + std::to_string(logger.quarantined_count()) +
        " vs " + std::to_string(ref.quarantined_count()) + "; " + sc.describe());
  }
  return PropertyResult::pass();
}

}  // namespace awd::testkit::props
