// tuner.hpp — per-plant detector auto-tuning to a target false-alarm rate.
//
// The paper hand-sets τ, w_m and the chi2/CUSUM parameters per plant; this
// module answers the operational question those constants dodge: "what
// thresholds deliver the false-alarm rate I am willing to page on?".  The
// approach follows the windowed-chi2 tuning literature (PAPERS.md):
//
//   1. closed form — estimate the clean residual scale σ_d from a short
//      attack-free pass, then invert the chi-squared tail to an initial
//      per-dimension threshold τ0 (and a windowed-chi2 / CUSUM
//      parameterization) at the target rate;
//   2. refinement — the adaptive detector's empirical FAR is measured over
//      seeded attack-free Monte-Carlo runs (core::run_batch, bit-identical
//      at any thread count).  Detection is passive, so FAR is exactly
//      monotone non-increasing in a scalar multiplier on τ0; a monotone
//      bisection on that multiplier drives the measured FAR to the target.
//
// Everything here is deterministic: seeds are derived per trial, counts are
// integers reduced in trial order, and the only division happens once at
// the end — reports are bitwise reproducible at any thread count.
#pragma once

#include <cstdint>
#include <memory>

#include "core/config.hpp"
#include "core/status.hpp"
#include "linalg/vec.hpp"

namespace awd::reach {
class Backend;
}

namespace awd::tune {

using linalg::Vec;

/// Upper tail probability of the chi-squared distribution:
/// P(X > x) for X ~ chi2(dof).  Hand-rolled regularized incomplete gamma
/// (series + continued fraction) — no third-party dependencies.
[[nodiscard]] double chi2_tail(double dof, double x);

/// Inverse of chi2_tail in x: the threshold with P(X > x) = alpha.
/// Deterministic bisection to full double precision.  alpha outside (0, 1)
/// throws std::invalid_argument.
[[nodiscard]] double chi2_quantile(double dof, double alpha);

/// Knobs for FAR measurement and tuning.  Zero-valued fields fall back to
/// the SimulatorCase's own tuner-facing defaults (target_far, tune_trials).
struct TuneOptions {
  double target_far = 0.0;        ///< 0 = scase.target_far
  std::size_t trials = 0;         ///< 0 = scase.tune_trials
  std::uint64_t base_seed = 0x7a9e2befULL;
  double rel_tolerance = 0.2;     ///< convergence: |far - target| <= tol * target
  std::size_t max_iterations = 32;  ///< FAR measurements spent on bracketing + bisection
  std::size_t warmup = 0;         ///< FP-exempt startup steps (0 = max_window + 1)
  std::size_t threads = 1;        ///< parallel_for width (bit-identical at any value)
};

/// One empirical FAR measurement over attack-free Monte-Carlo runs.
struct FarSample {
  double far = 0.0;               ///< adaptive-detector alarms / clean steps
  double far_fixed = 0.0;         ///< fixed-window baseline, same runs
  std::size_t alarms = 0;         ///< adaptive alarm steps counted
  std::size_t alarms_fixed = 0;
  std::size_t clean_steps = 0;    ///< post-warmup steps counted (all trials)
};

/// Measure the false-alarm rate of `scase` exactly as configured (its tau,
/// windows, noise), over opts.trials seeded attack-free runs.  Deterministic
/// and bit-identical across thread counts.  Throws std::invalid_argument on
/// an invalid case.
[[nodiscard]] FarSample measure_far(const core::SimulatorCase& scase,
                                    const TuneOptions& opts = {});

namespace detail {
/// measure_far over `backend` (core::make_batch_backend), which tune_detector
/// and roc_sweep build once and share across every threshold they measure.
[[nodiscard]] FarSample measure_far(const core::SimulatorCase& scase, const TuneOptions& opts,
                                    const std::shared_ptr<const reach::Backend>& backend);
}  // namespace detail

/// Everything the tuner decided, plus the evidence it decided on.
struct TuneReport {
  core::SimulatorCase tuned;   ///< scase with tau replaced by the tuned threshold
  Vec sigma;                   ///< estimated clean residual scale per dimension
  Vec tau0;                    ///< closed-form chi2 initialization of tau
  double scale = 1.0;          ///< final bisection multiplier: tuned.tau = tau0 * scale
  double chi2_threshold = 0.0; ///< windowed-chi2 threshold at the target rate
  Vec cusum_drift;             ///< CUSUM drift b per dimension (Wald initialization)
  Vec cusum_threshold;         ///< CUSUM threshold h per dimension
  double target_far = 0.0;
  double achieved_far = 0.0;   ///< measured FAR at the returned tau
  double achieved_far_fixed = 0.0;
  bool converged = false;      ///< |achieved - target| <= rel_tolerance * target
  std::size_t iterations = 0;  ///< FAR measurements spent
  std::size_t trials = 0;      ///< attack-free runs per measurement
  std::size_t clean_steps = 0; ///< steps behind each FAR estimate
};

/// Calibrate scase's thresholds to the target FAR.  Returns kInvalidInput
/// for an invalid case or out-of-range options; never throws for those.
/// The returned report is a pure function of (scase, opts) — bit-identical
/// across runs and thread counts.
[[nodiscard]] core::Result<TuneReport> tune_detector(const core::SimulatorCase& scase,
                                                     const TuneOptions& opts = {});

}  // namespace awd::tune
