// calibration.hpp — the paper's offline profiling procedures (§4.3).
//
// Two hyper-parameters exist outside the adaptive loop and are chosen
// offline:
//
//   * the detection threshold τ — §4.1/§4.3 note that regulating τ governs
//     false negatives; calibrate_threshold() runs attack-free simulations
//     and sets each dimension's τ to a high quantile of the clean residual
//     distribution (per-dimension, so coupled dimensions with different
//     noise floors get different thresholds, as in Table 1's RLC row);
//
//   * the maximum detection window w_m — §4.3: "experiment with a long
//     enough range of window size, and cut out the sub-range with an
//     acceptable false negative rate."  profile_max_window() runs the
//     Fig. 7 sweep and returns the largest window whose FN-experiment
//     count stays within the application's tolerance.
#pragma once

#include <cstdint>

#include "core/experiment.hpp"

namespace awd::core {

/// Options for threshold calibration.
struct ThresholdCalibrationOptions {
  std::size_t runs = 10;        ///< attack-free simulations to pool
  std::size_t warmup = 50;      ///< steps skipped at each run's start
  double quantile = 0.995;      ///< per-dimension residual quantile for τ
  double margin = 1.0;          ///< multiplier applied on top of the quantile
};

/// Per-dimension τ from the clean residual distribution of `scase`
/// (ignores the case's configured tau).  Throws std::invalid_argument on a
/// quantile outside (0, 1] or zero runs.
[[nodiscard]] Vec calibrate_threshold(const SimulatorCase& scase, std::uint64_t seed,
                                      const ThresholdCalibrationOptions& options = {});

/// Result of the §4.3 w_m profiling.
struct MaxWindowProfile {
  std::size_t max_window = 0;  ///< chosen w_m
  std::vector<WindowSweepPoint> sweep;  ///< the underlying Fig. 7 data
};

/// Options for w_m profiling.
struct MaxWindowOptions {
  std::size_t runs = 50;           ///< experiments per window size
  std::size_t window_limit = 100;  ///< largest window swept
  std::size_t window_stride = 5;   ///< sweep granularity
  std::size_t fn_tolerance = 3;    ///< acceptable FN experiments (paper: 3/100)
  MetricsOptions metrics;          ///< FP/FN counting parameters
  std::size_t threads = 0;         ///< sweep workers (0 = auto; bit-identical at any value)
};

/// Choose w_m as the largest swept window whose FN-experiment count is
/// within tolerance (FN grows with the window, so this is the paper's
/// "cutting line").  Falls back to the smallest swept window if even that
/// exceeds the tolerance.
[[nodiscard]] MaxWindowProfile profile_max_window(const SimulatorCase& scase,
                                                  AttackKind attack, std::uint64_t seed,
                                                  const MaxWindowOptions& options = {});

}  // namespace awd::core
