#include "tune/roc.hpp"

#include <algorithm>
#include <cmath>

#include "core/experiment.hpp"
#include "sim/noise.hpp"

namespace awd::tune {

core::Result<RocCurve> roc_sweep(const core::SimulatorCase& scase,
                                 const RocOptions& opts) {
  if (core::Status s = scase.check(); !s.is_ok()) return s;
  if (opts.far_trials == 0 || opts.tpr_trials == 0) {
    return core::Status{core::StatusCode::kInvalidInput,
                        "roc_sweep: trial counts must be > 0"};
  }
  if (opts.attacks.empty()) {
    return core::Status{core::StatusCode::kInvalidInput,
                        "roc_sweep: attack mix must not be empty"};
  }
  if (scase.attack_duration == 0) {
    return core::Status{core::StatusCode::kInvalidInput,
                        "roc_sweep: case has no attack window to score TPR on"};
  }
  std::vector<double> scales = opts.scales;
  if (scales.empty()) {
    // Geometric grid: wide enough to hit both ROC corners on the seed
    // plants (far ~ 1 at 0.35x, tpr ~ 0 well before 2.8x on clean noise).
    const double lo = 0.35;
    const double hi = 2.8;
    const int count = 9;
    const double step = std::pow(hi / lo, 1.0 / (count - 1));
    double s = lo;
    for (int i = 0; i < count; ++i, s *= step) scales.push_back(s);
  }
  for (double s : scales) {
    if (!(std::isfinite(s) && s > 0.0)) {
      return core::Status{core::StatusCode::kInvalidInput,
                          "roc_sweep: threshold scales must be finite and > 0"};
    }
  }

  // One backend serves every scale; it is the case's own kind (box/table).
  core::Result<std::shared_ptr<const reach::Backend>> backend = core::make_batch_backend(scase);
  if (!backend.is_ok()) return backend.status();

  const std::size_t detect_end =
      std::min(scase.steps, scase.attack_start + scase.attack_duration + scase.max_window);
  RocCurve curve;
  curve.points.reserve(scales.size());
  core::SimulatorCase probe = scase;
  for (std::size_t si = 0; si < scales.size(); ++si) {
    const double scale = scales[si];
    for (std::size_t d = 0; d < scase.tau.size(); ++d) {
      probe.tau[d] = scase.tau[d] * scale;
    }

    RocPoint point;
    point.scale = scale;

    TuneOptions fopts;
    fopts.trials = opts.far_trials;
    fopts.base_seed = opts.base_seed + si;
    fopts.warmup = opts.warmup;
    fopts.threads = opts.threads;
    point.far = detail::measure_far(probe, fopts, backend.value()).far;

    // TPR: attacks x trials flattened into one deterministic batch.  A run
    // counts as detected when the adaptive detector alarms anywhere in
    // [onset, attack end + w_m) — a window-based detector legitimately
    // alarms up to one window after the corruption stops — and stops there.
    const std::size_t runs = opts.attacks.size() * opts.tpr_trials;
    std::vector<std::uint8_t> hit(runs, 0);
    core::run_batch(
        probe, backend.value(), runs, opts.threads,
        [&](std::size_t i) {
          return core::BatchRun{opts.attacks[i / opts.tpr_trials],
                                sim::splitmix64(opts.base_seed + 0xa77accULL + si * 1009 + i)};
        },
        [&](std::size_t i, const sim::StepRecord& rec, const core::DetectionSystem&) {
          if (rec.t >= scase.attack_start && rec.t < detect_end && rec.adaptive_alarm) {
            hit[i] = 1;
            return false;
          }
          return true;
        });
    point.attacked_runs = runs;
    for (std::uint8_t h : hit) point.detected += h;
    point.tpr = static_cast<double>(point.detected) / static_cast<double>(runs);
    curve.points.push_back(point);
  }

  // Trapezoid AUC over (far, tpr) with the conceptual endpoints: infinite
  // threshold sits at (0, 0), zero threshold at (1, 1).
  std::vector<std::pair<double, double>> pts;
  pts.reserve(curve.points.size() + 2);
  pts.emplace_back(0.0, 0.0);
  for (const RocPoint& p : curve.points) pts.emplace_back(p.far, p.tpr);
  pts.emplace_back(1.0, 1.0);
  std::sort(pts.begin(), pts.end());
  double auc = 0.0;
  for (std::size_t i = 1; i < pts.size(); ++i) {
    const double dx = pts[i].first - pts[i - 1].first;
    auc += dx * 0.5 * (pts[i].second + pts[i - 1].second);
  }
  curve.auc = auc;
  return curve;
}

}  // namespace awd::tune
