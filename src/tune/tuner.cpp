#include "tune/tuner.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "core/detection_system.hpp"
#include "core/experiment.hpp"
#include "sim/noise.hpp"

namespace awd::tune {

namespace {

constexpr double kPi = 3.14159265358979323846;

/// Regularized lower incomplete gamma P(a, x) by series expansion
/// (converges fast for x < a + 1).
double gamma_p_series(double a, double x) {
  if (x <= 0.0) return 0.0;
  double term = 1.0 / a;
  double sum = term;
  double ap = a;
  for (int i = 0; i < 500; ++i) {
    ap += 1.0;
    term *= x / ap;
    sum += term;
    if (std::abs(term) < std::abs(sum) * 1e-16) break;
  }
  return sum * std::exp(-x + a * std::log(x) - std::lgamma(a));
}

/// Regularized upper incomplete gamma Q(a, x) by modified Lentz continued
/// fraction (converges fast for x >= a + 1).
double gamma_q_cf(double a, double x) {
  constexpr double kTiny = 1e-300;
  double b = x + 1.0 - a;
  double c = 1.0 / kTiny;
  double d = 1.0 / b;
  double h = d;
  for (int i = 1; i <= 500; ++i) {
    const double an = -static_cast<double>(i) * (static_cast<double>(i) - a);
    b += 2.0;
    d = an * d + b;
    if (std::abs(d) < kTiny) d = kTiny;
    c = b + an / c;
    if (std::abs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    const double del = d * c;
    h *= del;
    if (std::abs(del - 1.0) < 1e-16) break;
  }
  return h * std::exp(-x + a * std::log(x) - std::lgamma(a));
}

/// Upper regularized incomplete gamma Q(a, x) = 1 - P(a, x).
double gamma_q(double a, double x) {
  if (x <= 0.0) return 1.0;
  if (x < a + 1.0) return 1.0 - gamma_p_series(a, x);
  return gamma_q_cf(a, x);
}

/// Per-trial simulation seed: decorrelated from neighbors by the splitmix64
/// finalizer, stable across thread counts (pure function of base + index).
std::uint64_t far_trial_seed(std::uint64_t base, std::size_t trial) {
  return sim::splitmix64(base + 0x7a2e5eedULL + static_cast<std::uint64_t>(trial));
}

}  // namespace

double chi2_tail(double dof, double x) {
  if (!(dof > 0.0)) throw std::invalid_argument("chi2_tail: dof must be > 0");
  if (!(x >= 0.0)) return 1.0;
  return gamma_q(dof / 2.0, x / 2.0);
}

double chi2_quantile(double dof, double alpha) {
  if (!(dof > 0.0)) throw std::invalid_argument("chi2_quantile: dof must be > 0");
  if (!(alpha > 0.0 && alpha < 1.0)) {
    throw std::invalid_argument("chi2_quantile: alpha must be in (0, 1)");
  }
  // Bracket: the tail at 0 is 1 > alpha; grow hi until the tail drops below.
  double lo = 0.0;
  double hi = std::max(4.0, 2.0 * dof);
  for (int i = 0; i < 200 && chi2_tail(dof, hi) > alpha; ++i) hi *= 2.0;
  // Deterministic bisection to full double precision.
  for (int i = 0; i < 200; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (mid <= lo || mid >= hi) break;  // interval no longer splits
    if (chi2_tail(dof, mid) > alpha) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return hi;
}

FarSample measure_far(const core::SimulatorCase& scase, const TuneOptions& opts) {
  scase.validate();
  core::Result<std::shared_ptr<const reach::Backend>> backend = core::make_batch_backend(scase);
  if (!backend.is_ok()) {
    throw std::invalid_argument("measure_far: " + std::string(backend.status().message()));
  }
  return detail::measure_far(scase, opts, backend.value());
}

FarSample detail::measure_far(const core::SimulatorCase& scase, const TuneOptions& opts,
                              const std::shared_ptr<const reach::Backend>& backend) {
  const std::size_t trials = opts.trials != 0 ? opts.trials : scase.tune_trials;
  if (trials == 0) throw std::invalid_argument("measure_far: zero trials");
  const std::size_t warmup = opts.warmup != 0 ? opts.warmup : scase.max_window + 1;

  std::vector<FarSample> slots(trials);  // per-trial counts
  core::run_batch(
      scase, backend, trials, opts.threads,
      [&](std::size_t i) {
        return core::BatchRun{core::AttackKind::kNone, far_trial_seed(opts.base_seed, i)};
      },
      [&](std::size_t i, const sim::StepRecord& rec, const core::DetectionSystem&) {
        if (rec.t < warmup) return true;
        FarSample& c = slots[i];
        ++c.clean_steps;
        if (rec.adaptive_alarm) ++c.alarms;
        if (rec.fixed_alarm) ++c.alarms_fixed;
        return true;
      });

  FarSample out;
  for (const FarSample& c : slots) {  // ordered reduction (integers: exact anyway)
    out.clean_steps += c.clean_steps;
    out.alarms += c.alarms;
    out.alarms_fixed += c.alarms_fixed;
  }
  if (out.clean_steps == 0) {
    throw std::invalid_argument("measure_far: warmup leaves no clean steps to count");
  }
  out.far = static_cast<double>(out.alarms) / static_cast<double>(out.clean_steps);
  out.far_fixed =
      static_cast<double>(out.alarms_fixed) / static_cast<double>(out.clean_steps);
  return out;
}

core::Result<TuneReport> tune_detector(const core::SimulatorCase& scase,
                                       const TuneOptions& opts) {
  if (core::Status s = scase.check(); !s.is_ok()) return s;
  const double target = opts.target_far != 0.0 ? opts.target_far : scase.target_far;
  if (!(std::isfinite(target) && target > 0.0 && target < 1.0)) {
    return core::Status{core::StatusCode::kInvalidInput,
                        "tune_detector: target FAR must be in (0, 1)"};
  }
  const std::size_t trials = opts.trials != 0 ? opts.trials : scase.tune_trials;
  if (trials == 0) {
    return core::Status{core::StatusCode::kInvalidInput,
                        "tune_detector: trial count must be > 0"};
  }
  if (!(std::isfinite(opts.rel_tolerance) && opts.rel_tolerance > 0.0)) {
    return core::Status{core::StatusCode::kInvalidInput,
                        "tune_detector: rel_tolerance must be > 0"};
  }
  if (opts.max_iterations < 4) {
    return core::Status{core::StatusCode::kInvalidInput,
                        "tune_detector: max_iterations must be >= 4 (bracketing alone "
                        "needs up to three measurements)"};
  }

  const std::size_t n = scase.model.state_dim();
  const std::size_t warmup = opts.warmup != 0 ? opts.warmup : scase.max_window + 1;

  TuneReport report;
  report.target_far = target;
  report.trials = trials;

  // --- 1. Clean residual scale σ_d (short attack-free pass). --------------
  // Residuals behave as |N(0, σ_d)| to first order, so E[r²] = σ_d².  The
  // pass reuses the FAR machinery's seeds at distinct salted indices so the
  // later measurements draw fresh noise.
  core::Result<std::shared_ptr<const reach::Backend>> built = core::make_batch_backend(scase);
  if (!built.is_ok()) return built.status();
  const std::shared_ptr<const reach::Backend>& backend = built.value();
  {
    // One thread, so the floating-point sum runs in (run, step) order.
    const std::size_t sigma_runs = std::min<std::size_t>(4, trials);
    Vec sum_sq(n);
    std::size_t samples = 0;
    core::run_batch(
        scase, backend, sigma_runs, /*threads=*/1,
        [&](std::size_t r) {
          return core::BatchRun{core::AttackKind::kNone,
                                far_trial_seed(opts.base_seed ^ 0x5163a5ULL, r)};
        },
        [&](std::size_t, const sim::StepRecord& rec, const core::DetectionSystem& system) {
          if (rec.t < warmup) return true;
          ++samples;
          const detect::DataLogger& log = system.logger();
          const Vec& z = log.entry(log.latest()).residual;
          for (std::size_t d = 0; d < n; ++d) sum_sq[d] += z[d] * z[d];
          return true;
        });
    if (samples == 0) {
      return core::Status{core::StatusCode::kInvalidInput,
                          "tune_detector: warmup leaves no clean steps to calibrate on"};
    }
    report.sigma = Vec(n);
    for (std::size_t d = 0; d < n; ++d) {
      const double sigma = std::sqrt(sum_sq[d] / static_cast<double>(samples));
      // A noise-free dimension has no false alarms at any positive
      // threshold; a tiny floor keeps tau valid (check() wants tau > 0).
      report.sigma[d] = sigma > 0.0 ? sigma : 1e-12;
    }
  }

  // --- 2. Closed-form chi2 initialization. --------------------------------
  // The adaptive test alarms when any dimension's window mean of |z|
  // exceeds τ_d.  For a window of m half-normal samples the mean is
  // approximately normal with mean σ√(2/π) and sd σ√((1-2/π)/m); the
  // one-sided z-score at the per-dimension rate α_d comes from the chi2(1)
  // tail (P(Z > z) = α  ⇔  P(Z² > z²) = 2α).  This is an initialization —
  // window overlap correlates consecutive tests, so step 3 refines it
  // against the measured rate.
  {
    const double per_dim =
        std::clamp(1.0 - std::pow(1.0 - target, 1.0 / static_cast<double>(n)),
                   1e-12, 0.5 - 1e-12);
    const double z = std::sqrt(chi2_quantile(1.0, 2.0 * per_dim));
    const double m = static_cast<double>(std::max<std::size_t>(1, scase.max_window));
    const double mean_factor = std::sqrt(2.0 / kPi);
    const double sd_factor = std::sqrt((1.0 - 2.0 / kPi) / m);
    report.tau0 = Vec(n);
    for (std::size_t d = 0; d < n; ++d) {
      report.tau0[d] = report.sigma[d] * (mean_factor + z * sd_factor);
    }
    // Companion detectors at the same target rate: the windowed chi2
    // statistic (mean of m' normalized squared norms) is chi2(n·m')/m'; the
    // CUSUM drift/threshold use the standard Wald-style initialization.
    const double mp = static_cast<double>(std::max<std::size_t>(1, scase.fixed_window));
    report.chi2_threshold =
        chi2_quantile(static_cast<double>(n) * mp, target) / mp;
    report.cusum_drift = Vec(n);
    report.cusum_threshold = Vec(n);
    const double log_inv = std::log(1.0 / target);
    for (std::size_t d = 0; d < n; ++d) {
      report.cusum_drift[d] = report.sigma[d] * (mean_factor + 0.5);
      report.cusum_threshold[d] = report.sigma[d] * std::max(1.0, log_inv);
    }
  }

  // --- 3. Monotone bisection on the τ scale. ------------------------------
  // Detection is passive (alarms never feed back into the loop), so the
  // residual stream is identical at every scale and the measured FAR is
  // exactly non-increasing in s.  Invariant: far(lo) >= target >= far(hi).
  core::SimulatorCase probe = scase;
  std::size_t spent = 0;
  const auto far_at = [&](double s) {
    for (std::size_t d = 0; d < n; ++d) probe.tau[d] = report.tau0[d] * s;
    ++spent;
    return detail::measure_far(probe, opts, backend);
  };
  const double abs_tol = opts.rel_tolerance * target;
  const auto within = [&](const FarSample& f) {
    return std::abs(f.far - target) <= abs_tol;
  };

  double best_scale = 1.0;
  FarSample best = far_at(1.0);
  const auto consider = [&](double s, const FarSample& f) {
    if (std::abs(f.far - target) < std::abs(best.far - target)) {
      best = f;
      best_scale = s;
    }
  };

  double lo = 1.0;
  double hi = 1.0;
  FarSample flo = best;
  FarSample fhi = best;
  if (!within(best)) {
    if (best.far > target) {
      // Too many alarms at τ0: raise the ceiling until the rate drops under.
      while (fhi.far > target && spent < opts.max_iterations) {
        lo = hi;
        flo = fhi;
        hi *= 2.0;
        fhi = far_at(hi);
        consider(hi, fhi);
      }
    } else {
      // Too quiet at τ0: lower the floor until the rate rises over.
      while (flo.far < target && spent < opts.max_iterations) {
        hi = lo;
        fhi = flo;
        lo *= 0.5;
        flo = far_at(lo);
        consider(lo, flo);
      }
    }
    while (!within(best) && spent < opts.max_iterations && lo < hi) {
      const double mid = std::sqrt(lo * hi);  // geometric: scales are ratios
      if (!(mid > lo && mid < hi)) break;
      const FarSample fm = far_at(mid);
      consider(mid, fm);
#ifdef AWD_MUT_TUNE_BISECT_INVERT
      // [mutation-smoke seeded bug] bisection walks the wrong half: a
      // too-noisy midpoint shrinks the threshold further instead of
      // growing it, so the search diverges from the target rate.
      if (fm.far > target) {
        hi = mid;
      } else {
        lo = mid;
      }
#else
      if (fm.far > target) {
        lo = mid;  // still too many alarms: need a larger threshold
      } else {
        hi = mid;
      }
#endif
    }
  }

  report.scale = best_scale;
  report.achieved_far = best.far;
  report.achieved_far_fixed = best.far_fixed;
  report.converged = within(best);
  report.iterations = spent;
  report.clean_steps = best.clean_steps;
  report.tuned = scase;
  for (std::size_t d = 0; d < n; ++d) {
    report.tuned.tau[d] = report.tau0[d] * best_scale;
  }
  return report;
}

}  // namespace awd::tune
