// experiment.hpp — Monte-Carlo experiment runners (§6.1's protocol).
//
// run_batch is the one runner for seeded runs of the detector: one deadline
// backend per batch, DetectionSystems with the serving settings, and a
// per-step visitor that scores each record as it is produced (no Trace).
// run_cell (Table 2's #FP / #DM cells), tune::measure_far, the tuner's
// residual-scale pass and tune::roc_sweep run on it.  fixed_window_sweep
// (Fig. 7) reads only the residual stream, so it steps the bare simulator
// once per run and scores every window size on it via prefix sums.
//
// Run r's seed is a pure function of the base seed and r, per-run results
// land in slot r, and reductions walk the slots in run-index order, so every
// output is bit-identical for every thread count; threads == 1 is the plain
// serial loop.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/config.hpp"
#include "core/metrics.hpp"
#include "core/status.hpp"

namespace awd::obs {
class Timer;
}

namespace awd::core {

class DetectionSystem;

/// One seeded run of a batch: the attack scenario and the simulation seed.
struct BatchRun {
  AttackKind attack = AttackKind::kNone;
  std::uint64_t seed = 0;
};

/// The deadline backend every run of a batch over `scase` shares (what a
/// DetectionSystem with default options builds; it does not depend on tau).
[[nodiscard]] Result<std::shared_ptr<const reach::Backend>> make_batch_backend(
    const SimulatorCase& scase);

/// Run plan(0..runs-1) on core::parallel_for, each for up to scase.steps
/// steps of a DetectionSystem sharing `backend`, with lean records and no
/// per-step stage marks.  visit(r, rec, system) follows every step of run r;
/// returning false ends that run.  Callers keep run r's result in slot r.
/// With `run_timer`, each run is one span of it.
void run_batch(const SimulatorCase& scase, const std::shared_ptr<const reach::Backend>& backend,
               std::size_t runs, std::size_t threads,
               const std::function<BatchRun(std::size_t run)>& plan,
               const std::function<bool(std::size_t run, const sim::StepRecord& rec,
                                        const DetectionSystem& system)>& visit,
               obs::Timer* run_timer = nullptr);

/// Aggregated result of one Table 2 cell (one simulator × one attack).
struct CellResult {
  std::string simulator;
  AttackKind attack = AttackKind::kNone;
  std::size_t runs = 0;

  std::size_t fp_adaptive = 0;  ///< runs whose adaptive FP rate exceeded the threshold
  std::size_t fp_fixed = 0;
  std::size_t dm_adaptive = 0;  ///< runs where the adaptive detector missed the deadline
  std::size_t dm_fixed = 0;
  std::size_t fn_adaptive = 0;  ///< runs where the attack was never detected
  std::size_t fn_fixed = 0;

  double mean_delay_adaptive = 0.0;  ///< mean detection delay over detected runs
  double mean_delay_fixed = 0.0;

  [[nodiscard]] friend bool operator==(const CellResult&, const CellResult&) = default;
};

/// Outcome of a single Table 2 run: both strategies evaluated on one trace.
struct CellRunOutcome {
  RunMetrics adaptive;
  RunMetrics fixed;
};

/// One seeded run of a Table 2 cell the long way — its own backend, a whole
/// Trace, compute_metrics — as the oracle run_cell is tested against.
/// `options` is used as given (no post_attack_guard defaulting).
[[nodiscard]] CellRunOutcome run_cell_once(const SimulatorCase& scase, AttackKind attack,
                                           std::uint64_t seed, const MetricsOptions& options);

/// Pure reduction of per-run outcomes into a CellResult, walking `outcomes`
/// in run-index order (so delay sums accumulate exactly like the serial
/// loop, at any thread count).
[[nodiscard]] CellResult reduce_cell(const SimulatorCase& scase, AttackKind attack,
                                     const std::vector<CellRunOutcome>& outcomes);

/// Parameters of one Table 2 cell, e.g.
///   run_cell({.scase = scase, .attack = AttackKind::kBias, .base_seed = 2022});
struct ExperimentSpec {
  SimulatorCase scase;
  AttackKind attack = AttackKind::kNone;
  std::size_t runs = 100;       ///< seeded Monte-Carlo runs (§6.1: 100)
  std::uint64_t base_seed = 0;  ///< run r uses splitmix64-derived seed r
  /// Scoring parameters; a zero post_attack_guard defaults to
  /// scase.max_window (alarms while a window still covers attacked samples
  /// are delayed true positives).
  MetricsOptions metrics = {};
  /// Worker threads for the run loop: 0 = auto (AWD_THREADS env var, else
  /// hardware concurrency), 1 = serial.  Results are bit-identical for
  /// every value.
  std::size_t threads = 0;

  /// First violation as a Status (kInvalidInput), or OK.
  [[nodiscard]] Status check() const noexcept;
};

/// Run one Table 2 cell: spec.runs seeded simulations with both detectors.
/// Returns spec.check()'s Status when the spec is invalid.
[[nodiscard]] Result<CellResult> run_cell(const ExperimentSpec& spec);

/// One point of the Fig. 7 sweep.
struct WindowSweepPoint {
  std::size_t window = 0;
  std::size_t fp_experiments = 0;  ///< runs with FP rate > threshold at this window
  std::size_t fn_experiments = 0;  ///< runs where the attack went undetected

  [[nodiscard]] friend bool operator==(const WindowSweepPoint&,
                                       const WindowSweepPoint&) = default;
};

/// Parameters of one Fig. 7 sweep (see ExperimentSpec for the field
/// conventions; `windows` must be non-empty).
struct SweepSpec {
  SimulatorCase scase;
  AttackKind attack = AttackKind::kNone;
  std::vector<std::size_t> windows;  ///< window sizes to evaluate (e.g. 0..100)
  std::size_t runs = 100;            ///< experiments per window size (shared traces)
  std::uint64_t base_seed = 0;
  MetricsOptions metrics = {};  ///< used as given (no post_attack_guard defaulting)
  std::size_t threads = 0;

  /// First violation as a Status (kInvalidInput), or OK.
  [[nodiscard]] Status check() const noexcept;
};

/// Fig. 7: profile the fixed-window detector across window sizes.
/// Returns spec.check()'s Status when the spec is invalid.
[[nodiscard]] Result<std::vector<WindowSweepPoint>> fixed_window_sweep(
    const SweepSpec& spec);

}  // namespace awd::core
