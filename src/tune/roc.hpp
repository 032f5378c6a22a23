// roc.hpp — deterministic ROC/AUC sweeps of the adaptive detector.
//
// One ROC point fixes a threshold scale s (tau = s * base tau), measures
// the false-alarm rate over attack-free runs (tune::measure_far) and the
// true-positive rate over attacked runs across a mix of scenarios —
// including the detector-aware adversarial attacks, whose parameters track
// the scaled threshold (the attacker knows the defense).  Sweeping s traces
// the FAR/TPR trade-off; the trapezoid AUC condenses it to one gateable
// number (tests/tune/roc_floor_test.cpp fails on a > 0.02 absolute drop).
//
// Everything is seeded and integer-counted, so curves and AUC values are
// bit-identical across runs and thread counts.
#pragma once

#include <cstdint>
#include <vector>

#include "core/config.hpp"
#include "core/status.hpp"
#include "tune/tuner.hpp"

namespace awd::tune {

struct RocOptions {
  /// Threshold multipliers swept (on the case's configured tau).  Empty =
  /// a geometric default grid of 9 scales in [0.35, 2.8].
  std::vector<double> scales;
  std::size_t far_trials = 8;   ///< attack-free runs per point
  std::size_t tpr_trials = 6;   ///< attacked runs per (point, attack kind)
  /// Attack mix scored for TPR.  Defaults to one classic and three
  /// adversarial scenarios.
  std::vector<core::AttackKind> attacks = {
      core::AttackKind::kBias, core::AttackKind::kReplay,
      core::AttackKind::kStealthyRamp, core::AttackKind::kIntermittentBias};
  std::uint64_t base_seed = 0x40c5eed1ULL;
  std::size_t warmup = 0;       ///< 0 = max_window + 1
  std::size_t threads = 1;
};

struct RocPoint {
  double scale = 1.0;
  double far = 0.0;             ///< adaptive false-alarm rate at this scale
  double tpr = 0.0;             ///< detected attacked runs / attacked runs
  std::size_t detected = 0;
  std::size_t attacked_runs = 0;
};

struct RocCurve {
  std::vector<RocPoint> points;  ///< in sweep order (descending FAR)
  double auc = 0.0;              ///< trapezoid area, endpoints (0,0) and (1,1)
};

/// Sweep the detector's ROC curve for one plant.  Returns kInvalidInput for
/// an invalid case or empty/degenerate options.
[[nodiscard]] core::Result<RocCurve> roc_sweep(const core::SimulatorCase& scase,
                                               const RocOptions& opts = {});

}  // namespace awd::tune
