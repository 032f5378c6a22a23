// experiment.hpp — Monte-Carlo experiment runners (§6.1's protocol).
//
// Two workloads drive the paper's quantitative results:
//   * run_cell        — 100 seeded runs of one (simulator, attack) pair with
//                       both strategies evaluated on the same traces; yields
//                       the #FP / #DM counts of Table 2.
//   * fixed_window_sweep — the Fig. 7 profiling sweep: for every candidate
//                       window size, count FP experiments (FP rate > 10 %)
//                       and FN experiments (attack never detected) over N
//                       runs.  The trace does not depend on the detector, so
//                       each run is simulated once and every window size is
//                       evaluated on the same residual stream via prefix
//                       sums.
//
// Both runners execute their seeded runs on core::parallel_for: run r uses
// the derived seed splitmix64(base_seed + r) regardless of which worker
// computes it, per-run outcomes land in slot r, and the reduction walks the
// slots in run-index order.  Counts, floating-point delay sums, and CSV
// output are therefore bit-identical for every thread count; threads == 1
// degenerates to the plain serial loop.
#pragma once

#include <cstdint>
#include <vector>

#include "core/config.hpp"
#include "core/metrics.hpp"
#include "core/status.hpp"

namespace awd::core {

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

/// Execute one seeded run of a Table 2 cell.  `options` is used as given
/// (no post_attack_guard defaulting); pure apart from the simulation itself,
/// safe to call concurrently for distinct seeds.
[[nodiscard]] CellRunOutcome run_cell_once(const SimulatorCase& scase, AttackKind attack,
                                           std::uint64_t seed, const MetricsOptions& options);

/// Pure reduction of per-run outcomes into a CellResult, walking `outcomes`
/// in run-index order (so delay sums accumulate exactly like the serial
/// loop).  Shared by the serial and parallel paths of run_cell.
[[nodiscard]] CellResult reduce_cell(const SimulatorCase& scase, AttackKind attack,
                                     const std::vector<CellRunOutcome>& outcomes);

/// Parameters of one Table 2 cell.  Designated initializers replace the
/// old six-argument positional call:
///   run_cell({.scase = scase, .attack = AttackKind::kBias, .runs = 100,
///             .base_seed = 2022});
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
