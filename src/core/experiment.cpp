#include "core/experiment.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "core/detection_system.hpp"
#include "core/parallel.hpp"
#include "obs/obs.hpp"
#include "sim/noise.hpp"

namespace awd::core {

namespace {

struct ExperimentObs {
  obs::Counter& cell_runs;
  obs::Counter& sweep_runs;
  obs::Counter& fp_adaptive;
  obs::Counter& fp_fixed;
  obs::Counter& dm_adaptive;
  obs::Counter& dm_fixed;
  obs::Counter& fn_adaptive;
  obs::Counter& fn_fixed;
  obs::Timer& cell_run;
  obs::Timer& sweep_run;

  static ExperimentObs& get() {
    static ExperimentObs o{
        obs::Registry::global().counter("awd_experiment_cell_runs_total",
                                        "Monte-Carlo runs executed by run_cell"),
        obs::Registry::global().counter("awd_experiment_sweep_runs_total",
                                        "simulations executed by fixed_window_sweep"),
        obs::Registry::global().counter("awd_experiment_fp_adaptive_total",
                                        "runs flagged FP-experiment (adaptive)"),
        obs::Registry::global().counter("awd_experiment_fp_fixed_total",
                                        "runs flagged FP-experiment (fixed)"),
        obs::Registry::global().counter("awd_experiment_dm_adaptive_total",
                                        "runs flagged deadline-miss (adaptive)"),
        obs::Registry::global().counter("awd_experiment_dm_fixed_total",
                                        "runs flagged deadline-miss (fixed)"),
        obs::Registry::global().counter("awd_experiment_fn_adaptive_total",
                                        "runs flagged false-negative (adaptive)"),
        obs::Registry::global().counter("awd_experiment_fn_fixed_total",
                                        "runs flagged false-negative (fixed)"),
        obs::Registry::global().timer("awd_experiment_cell_run",
                                      "one simulate+detect+score Monte-Carlo run"),
        obs::Registry::global().timer("awd_experiment_sweep_run",
                                      "one fixed-window sweep simulation"),
    };
    return o;
  }
};

/// Independent per-run seed stream (splitmix64 over the run index).
std::uint64_t run_seed(std::uint64_t base_seed, std::size_t run) {
  return sim::splitmix64(base_seed + 0x51a3c0de00000000ULL + run);
}

/// Per-run, per-window verdicts of one sweep run (parallel-safe payload;
/// reduced in run-index order by fixed_window_sweep).
struct SweepRunOutcome {
  std::vector<bool> fp_experiment;  ///< one flag per window index
  std::vector<bool> fn_experiment;
};

SweepRunOutcome sweep_run_once(const SimulatorCase& scase, AttackKind attack,
                               const std::vector<std::size_t>& windows, std::uint64_t seed,
                               const MetricsOptions& options) {
  ExperimentObs& ob = ExperimentObs::get();
  ob.sweep_runs.inc();
  const obs::ScopedSpan span(ob.sweep_run, "sweep_run", "experiment");
  const std::size_t n = scase.model.state_dim();
  const std::size_t steps = scase.steps;
  const std::size_t attack_end = scase.attack_start + scase.attack_duration;

  // Simulate once; the residual stream is detector-independent.
  sim::Simulator simulator = scase.make_simulator(attack, seed);

  // Per-dimension prefix sums of the residuals: prefix[d][t+1] - wait-free
  // window means for every size.
  std::vector<std::vector<double>> prefix(n, std::vector<double>(steps + 1, 0.0));
  for (std::size_t t = 0; t < steps; ++t) {
    const sim::StepRecord rec = simulator.step();
    for (std::size_t d = 0; d < n; ++d) {
      prefix[d][t + 1] = prefix[d][t] + rec.residual[d];
    }
  }

  SweepRunOutcome outcome;
  outcome.fp_experiment.resize(windows.size(), false);
  outcome.fn_experiment.resize(windows.size(), false);

  for (std::size_t wi = 0; wi < windows.size(); ++wi) {
    const std::size_t w = windows[wi];
    std::size_t clean_steps = 0;
    std::size_t fp_alarms = 0;
    bool detected = false;

    for (std::size_t t = options.warmup; t < steps; ++t) {
      const std::size_t lo = t >= w ? t - w : 0;
      const std::size_t count = t - lo + 1;
      bool alarm = false;
      for (std::size_t d = 0; d < n; ++d) {
        const double mean = (prefix[d][t + 1] - prefix[d][lo]) / static_cast<double>(count);
        if (mean > scase.tau[d]) {
          alarm = true;
          break;
        }
      }
      // An alarm whose window overlaps the attack interval is a true
      // positive; everything else is a false positive.
      const bool window_overlaps_attack = t >= scase.attack_start && lo < attack_end;
      if (window_overlaps_attack) {
        if (alarm) detected = true;
      } else {
        ++clean_steps;
        if (alarm) ++fp_alarms;
      }
    }

    const double fp_rate = clean_steps == 0
                               ? 0.0
                               : static_cast<double>(fp_alarms) /
                                     static_cast<double>(clean_steps);
    outcome.fp_experiment[wi] = fp_rate > options.fp_threshold;
    outcome.fn_experiment[wi] = !detected;
  }
  return outcome;
}

}  // namespace

Result<std::shared_ptr<const reach::Backend>> make_batch_backend(const SimulatorCase& scase) {
  Result<std::unique_ptr<reach::Backend>> built =
      reach::make_backend(make_backend_spec(scase, 0.0, 0));
  if (!built.is_ok()) return built.status();
  return std::shared_ptr<const reach::Backend>(std::move(built).value());
}

void run_batch(const SimulatorCase& scase, const std::shared_ptr<const reach::Backend>& backend,
               std::size_t runs, std::size_t threads,
               const std::function<BatchRun(std::size_t run)>& plan,
               const std::function<bool(std::size_t run, const sim::StepRecord& rec,
                                        const DetectionSystem& system)>& visit,
               obs::Timer* run_timer) {
  parallel_for(runs, threads, [&](std::size_t r) {
    std::optional<obs::ScopedSpan> span;
    if (run_timer) span.emplace(*run_timer, "batch_run", "experiment");
    const BatchRun run = plan(r);
    DetectionSystemOptions options;
    options.lean_records = true;
    options.per_step_obs = false;
    options.shared_deadline_estimator = backend;
    DetectionSystem system(scase, run.attack, run.seed, std::move(options));
    sim::StepRecord rec;
    for (std::size_t t = 0; t < scase.steps; ++t) {
      system.step_into(rec);
      if (!visit(r, rec, system)) break;
    }
  });
}

CellRunOutcome run_cell_once(const SimulatorCase& scase, AttackKind attack,
                             std::uint64_t seed, const MetricsOptions& options) {
  const sim::Trace trace = DetectionSystem(scase, attack, seed).run();
  return {.adaptive = compute_metrics(trace, scase.attack_start, scase.attack_duration,
                                      Strategy::kAdaptive, options),
          .fixed = compute_metrics(trace, scase.attack_start, scase.attack_duration,
                                   Strategy::kFixed, options)};
}

CellResult reduce_cell(const SimulatorCase& scase, AttackKind attack,
                       const std::vector<CellRunOutcome>& outcomes) {
  CellResult cell;
  cell.simulator = scase.key;
  cell.attack = attack;
  cell.runs = outcomes.size();

  double delay_sum_adaptive = 0.0;
  std::size_t delay_n_adaptive = 0;
  double delay_sum_fixed = 0.0;
  std::size_t delay_n_fixed = 0;

  for (const CellRunOutcome& o : outcomes) {
    if (o.adaptive.fp_experiment) ++cell.fp_adaptive;
    if (o.fixed.fp_experiment) ++cell.fp_fixed;
    if (o.adaptive.deadline_miss) ++cell.dm_adaptive;
    if (o.fixed.deadline_miss) ++cell.dm_fixed;
    if (o.adaptive.false_negative) ++cell.fn_adaptive;
    if (o.fixed.false_negative) ++cell.fn_fixed;
    if (o.adaptive.detection_delay) {
      delay_sum_adaptive += static_cast<double>(*o.adaptive.detection_delay);
      ++delay_n_adaptive;
    }
    if (o.fixed.detection_delay) {
      delay_sum_fixed += static_cast<double>(*o.fixed.detection_delay);
      ++delay_n_fixed;
    }
  }

  ExperimentObs& ob = ExperimentObs::get();
  ob.fp_adaptive.inc(cell.fp_adaptive);
  ob.fp_fixed.inc(cell.fp_fixed);
  ob.dm_adaptive.inc(cell.dm_adaptive);
  ob.dm_fixed.inc(cell.dm_fixed);
  ob.fn_adaptive.inc(cell.fn_adaptive);
  ob.fn_fixed.inc(cell.fn_fixed);

  cell.mean_delay_adaptive =
      delay_n_adaptive == 0 ? 0.0 : delay_sum_adaptive / static_cast<double>(delay_n_adaptive);
  cell.mean_delay_fixed =
      delay_n_fixed == 0 ? 0.0 : delay_sum_fixed / static_cast<double>(delay_n_fixed);
  return cell;
}

Status ExperimentSpec::check() const noexcept {
  if (Status s = scase.check(); !s.is_ok()) return s;
  if (runs == 0) {
    return Status{StatusCode::kInvalidInput, "ExperimentSpec: runs must be >= 1"};
  }
  return Status::ok();
}

Status SweepSpec::check() const noexcept {
  if (Status s = scase.check(); !s.is_ok()) return s;
  if (runs == 0) {
    return Status{StatusCode::kInvalidInput, "SweepSpec: runs must be >= 1"};
  }
  if (windows.empty()) {
    return Status{StatusCode::kInvalidInput, "SweepSpec: windows must be non-empty"};
  }
  return Status::ok();
}

Result<CellResult> run_cell(const ExperimentSpec& spec) {
  if (Status s = spec.check(); !s.is_ok()) return s;

  // Alarms while a window still covers attacked samples are delayed true
  // positives; by default guard one maximal window past the attack.
  MetricsOptions opts = spec.metrics;
  if (opts.post_attack_guard == 0) opts.post_attack_guard = spec.scase.max_window;

  Result<std::shared_ptr<const reach::Backend>> backend = make_batch_backend(spec.scase);
  if (!backend.is_ok()) return backend.status();

  ExperimentObs& ob = ExperimentObs::get();
  ob.cell_runs.inc(spec.runs);
  std::vector<StreamingMetrics> scores(
      spec.runs, StreamingMetrics(spec.scase.attack_start, spec.scase.attack_duration, opts));
  run_batch(
      spec.scase, backend.value(), spec.runs, spec.threads,
      [&](std::size_t r) { return BatchRun{spec.attack, run_seed(spec.base_seed, r)}; },
      [&](std::size_t r, const sim::StepRecord& rec, const DetectionSystem&) {
        scores[r].observe(rec);
        return true;
      },
      &ob.cell_run);

  std::vector<CellRunOutcome> outcomes;
  outcomes.reserve(spec.runs);
  for (const StreamingMetrics& m : scores) {
    outcomes.push_back({m.finish(Strategy::kAdaptive), m.finish(Strategy::kFixed)});
  }
  return reduce_cell(spec.scase, spec.attack, outcomes);
}

Result<std::vector<WindowSweepPoint>> fixed_window_sweep(const SweepSpec& spec) {
  if (Status s = spec.check(); !s.is_ok()) return s;

  std::vector<SweepRunOutcome> outcomes(spec.runs);
  parallel_for(spec.runs, spec.threads, [&](std::size_t r) {
    outcomes[r] = sweep_run_once(spec.scase, spec.attack, spec.windows,
                                 run_seed(spec.base_seed, r), spec.metrics);
  });

  // Ordered reduction: identical counts regardless of thread count.
  std::vector<WindowSweepPoint> points(spec.windows.size());
  for (std::size_t w = 0; w < spec.windows.size(); ++w) points[w].window = spec.windows[w];
  for (const SweepRunOutcome& o : outcomes) {
    for (std::size_t wi = 0; wi < spec.windows.size(); ++wi) {
      if (o.fp_experiment[wi]) ++points[wi].fp_experiments;
      if (o.fn_experiment[wi]) ++points[wi].fn_experiments;
    }
  }
  return points;
}

}  // namespace awd::core
