// campaign.cpp — the Table-2 campaign workload: run_cell over 5 plants ×
// {bias, delay, replay} × 100 seeded runs, the batch/research path.  Every
// run builds its own DetectionSystem and box backend, materializes a Trace
// and scores it with compute_metrics; each cell's parallel_for spawns its
// own pool.  The timed phase repeats whole campaigns back to back.
#include <algorithm>
#include <array>
#include <stdexcept>

#include "bench.hpp"
#include "replay.hpp"

namespace perfbench {

namespace {

using awd::AttackKind;

constexpr std::size_t kRunsPerCell = 100;  // §6.1

std::vector<awd::ExperimentSpec> build_campaign(std::uint64_t seed, std::size_t threads) {
  // Table 2's scoring: FP experiment above a 1 % FP rate, start-up
  // transients excluded (as bench/bench_table2_matrix).
  awd::MetricsOptions metrics;
  metrics.fp_threshold = 0.01;
  metrics.warmup = 100;
  std::vector<awd::ExperimentSpec> cells;
  for (const awd::SimulatorCase& c : awd::table1_cases()) {
    for (const AttackKind attack : {AttackKind::kBias, AttackKind::kDelay, AttackKind::kReplay}) {
      cells.push_back({.scase = c,
                       .attack = attack,
                       .runs = kRunsPerCell,
                       .base_seed = mix(seed, 0, 11),
                       .metrics = metrics,
                       .threads = threads});
    }
  }
  return cells;
}

std::size_t campaign_steps(const std::vector<awd::ExperimentSpec>& cells) {
  std::size_t total = 0;
  for (const awd::ExperimentSpec& c : cells) total += c.runs * c.scase.steps;
  return total;
}

/// run_cell's per-run seed (core/experiment.cpp); the traced replica's
/// CellResults must equal run_cell's, which checks this stays in step.
std::uint64_t run_seed(std::uint64_t base_seed, std::size_t run) {
  return awd::sim::splitmix64(base_seed + 0x51a3c0de00000000ULL + run);
}

/// Every cell at threads = 1: the reference the parallel results must equal.
std::vector<awd::CellResult> reference_cells(std::vector<awd::ExperimentSpec> cells,
                                             RunOutput& out) {
  std::vector<awd::CellResult> ref;
  for (awd::ExperimentSpec& spec : cells) {
    spec.threads = 1;
    awd::Result<awd::CellResult> r = awd::run_cell(spec);
    ++out.attempted;
    if (!r.is_ok()) {
      ++out.failed;
      out.fail("reference run_cell failed");
      ref.emplace_back();
      continue;
    }
    ref.push_back(std::move(r).value());
  }
  return ref;
}

Json settings_json(std::size_t threads, std::size_t cells) {
  Json j;
  j.str("load", "closed loop: whole Table-2 campaigns back to back, one run_cell at a time")
      .count("cells", cells)
      .count("runs_per_cell", kRunsPerCell)
      .count("threads", threads)
      .str("plants", "table1_cases (5)")
      .str("attacks", "bias, delay, replay")
      .str("backend", "box, built per run")
      .flag("obs_enabled", awd::obs::enabled());
  return j;
}

RunOutput campaign_end_to_end(const RunArgs& a) {
  RunOutput out;
  const std::size_t threads = bench_threads();

  std::vector<awd::ExperimentSpec> cells = build_campaign(a.seed, threads);
  // The threads = 1 reference doubles as the warm-up.
  const std::vector<awd::CellResult> ref = reference_cells(cells, out);

  // Set-up: case construction before the first cell.  Timed in rounds
  // over every CPU (see pinned_round): one after the warm-up (when the clock
  // has settled: a sub-millisecond cost read at process start varies with
  // it) and one after every second timed campaign, outside its timing, so
  // the rounds spread over the run.  The median over rounds of each round's
  // fastest set-up is reported.
  std::vector<std::vector<double>> setup_s;
  const auto setup_round = [&] {
    setup_s.push_back(pinned_round(0.06, [&] {
      const std::uint64_t t0 = now_ns();
      cells = build_campaign(a.seed, threads);
      return seconds_between(t0, now_ns());
    }));
  };
  setup_round();

  std::vector<double> cell_ms;
  std::vector<double> campaign_s;
  std::uint64_t steps = 0;
  const std::uint64_t t_start = now_ns();
  do {
    const std::uint64_t c0 = now_ns();
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const std::uint64_t t0 = now_ns();
      awd::Result<awd::CellResult> r = awd::run_cell(cells[i]);
      cell_ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
      ++out.attempted;
      if (!r.is_ok() || !(r.value() == ref[i])) ++out.failed;
      steps += cells[i].runs * cells[i].scase.steps;
    }
    campaign_s.push_back(seconds_between(c0, now_ns()));
    if (campaign_s.size() % 2 == 0) setup_round();
  } while (seconds_between(t_start, now_ns()) < a.seconds);
  const double timed_s = seconds_between(t_start, now_ns());
  if (out.failed) out.fail("a parallel CellResult differs from its threads=1 reference");

  std::uint64_t runs = 0;
  std::uint64_t dm = 0;
  std::uint64_t fp = 0;
  for (const awd::CellResult& c : ref) {
    runs += c.runs;
    dm += c.dm_adaptive;
    fp += c.fp_adaptive;
  }
  const TailPercentile p99 = tail_percentile(cell_ms);
  out.add("setup_s", median_of_minima(setup_s), "s");
  // Median over whole campaigns, so a burst of host contention during one
  // campaign does not move it.
  out.add("steps_per_s", static_cast<double>(campaign_steps(cells)) / median(campaign_s),
          "steps/s");
  out.add("tick_p50_ms", median(cell_ms), "ms");
  out.add("tick_p99_ms", p99.value, "ms");
  out.add("campaign_s", median(campaign_s), "s");
  out.add("peak_rss_mb", peak_rss_mib(), "MiB");
  out.add("deadline_miss_frac", static_cast<double>(dm) / static_cast<double>(runs), "ratio");
  out.add("fp_run_frac", static_cast<double>(fp) / static_cast<double>(runs), "ratio");
  out.add("failed_frac",
          static_cast<double>(out.failed) / static_cast<double>(std::max<std::uint64_t>(1, out.attempted)),
          "ratio");

  const std::array<double, 3> q = quartiles(cell_ms);
  Json tick;
  tick.str("unit", "one run_cell call (one Table-2 cell)")
      .count("ticks", cell_ms.size())
      .count("tail_percentile", static_cast<std::uint64_t>(p99.pct))
      .count("tail_samples_beyond", p99.beyond)
      .num("q1_ms", q[0])
      .num("q3_ms", q[2]);
  out.details.obj("settings", settings_json(threads, cells.size()))
      .num("timed_s", timed_s)
      .count("campaigns", campaign_s.size())
      .count("steps_per_campaign", campaign_steps(cells))
      .raw("setup_round_minima_s", json_array(minima(setup_s)))
      .obj("tick", tick);
  return out;
}

/// One traced replica of a campaign: run_cell's parallel loop rebuilt from
/// the public calls it makes, with a span around each.
struct TracedCampaign {
  double seconds = 0.0;
  double busy_ns = 0.0;  ///< summed per-run span time
  double wall_ns = 0.0;  ///< summed parallel_for wall time
  bool matches = true;
};

TracedCampaign traced_campaign(const std::vector<awd::ExperimentSpec>& cells,
                               const std::vector<awd::CellResult>& ref,
                               SpanLog& spans) {
  TracedCampaign tc;
  const std::uint64_t start = now_ns();
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const awd::ExperimentSpec& spec = cells[i];
    awd::MetricsOptions opts = spec.metrics;
    if (opts.post_attack_guard == 0) opts.post_attack_guard = spec.scase.max_window;
    const ScopedSpan cell_span(&spans, "core.experiment.cell", -1, i, 0);
    std::vector<awd::CellRunOutcome> outcomes(spec.runs);
    std::vector<SpanLog> logs(spec.runs);
    const std::uint64_t t0 = now_ns();
    awd::core::parallel_for(spec.runs, spec.threads, [&](std::size_t r) {
      SpanLog& log = logs[r];
      const ScopedSpan run_span(&log, "core.experiment.run_once", -1, i, r);
      const std::uint64_t seed = run_seed(spec.base_seed, r);
      awd::Result<awd::DetectionSystem> created = [&] {
        const ScopedSpan s(&log, "core.experiment.create", run_span.index(), i, r);
        return awd::DetectionSystem::create(spec.scase, spec.attack, seed);
      }();
      if (!created.is_ok()) return;
      awd::DetectionSystem sys = std::move(created).value();
      const awd::Trace trace = [&] {
        const ScopedSpan s(&log, "core.experiment.run", run_span.index(), i, r);
        return sys.run();
      }();
      const ScopedSpan s(&log, "core.experiment.score", run_span.index(), i, r);
      outcomes[r].adaptive = awd::compute_metrics(trace, spec.scase.attack_start,
                                                  spec.scase.attack_duration,
                                                  awd::Strategy::kAdaptive, opts);
      outcomes[r].fixed = awd::compute_metrics(trace, spec.scase.attack_start,
                                               spec.scase.attack_duration,
                                               awd::Strategy::kFixed, opts);
    });
    tc.wall_ns += static_cast<double>(now_ns() - t0);
    for (const SpanLog& log : logs) {
      for (const Span& s : log.spans()) {
        if (s.parent < 0) tc.busy_ns += static_cast<double>(s.end_ns - s.start_ns);
      }
      spans.merge(log, cell_span.index());
    }
    const awd::CellResult result = [&] {
      const ScopedSpan s(&spans, "core.experiment.reduce", cell_span.index(), i, 0);
      return awd::core::reduce_cell(spec.scase, spec.attack, outcomes);
    }();
    if (!(result == ref[i])) tc.matches = false;
  }
  tc.seconds = seconds_between(start, now_ns());
  return tc;
}

RunOutput campaign_traced(const RunArgs& a, SpanLog& spans) {
  RunOutput out;
  const std::size_t threads = bench_threads();
  const std::vector<awd::ExperimentSpec> cells = build_campaign(a.seed, threads);
  const std::vector<awd::CellResult> ref = reference_cells(cells, out);
  const double steps = static_cast<double>(campaign_steps(cells));

  // Untraced (run_cell) and traced (replica) campaigns alternate.
  double untraced_s = 0.0;
  double traced_s = 0.0;
  double busy_ns = 0.0;
  double wall_ns = 0.0;
  for (int round = 0; round < 2; ++round) {
    const std::uint64_t t0 = now_ns();
    for (std::size_t i = 0; i < cells.size(); ++i) {
      awd::Result<awd::CellResult> r = awd::run_cell(cells[i]);
      ++out.attempted;
      if (!r.is_ok() || !(r.value() == ref[i])) {
        ++out.failed;
        out.fail("run_cell result differs from its threads=1 reference");
      }
    }
    untraced_s += seconds_between(t0, now_ns());
    const TracedCampaign tc = traced_campaign(cells, ref, spans);
    out.attempted += cells.size();
    if (!tc.matches) {
      ++out.failed;
      out.fail("traced campaign replica differs from run_cell");
    }
    traced_s += tc.seconds;
    busy_ns += tc.busy_ns;
    wall_ns += tc.wall_ns;
  }

  // Layer-by-layer replay of run 0 of every cell (twice: shape must repeat).
  ReplayStats replay;
  ReplayStats replay_again;
  std::vector<double> build_ms;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const awd::ExperimentSpec& spec = cells[i];
    const std::uint64_t t0 = now_ns();
    awd::Result<std::unique_ptr<awd::Backend>> built =
        awd::make_backend(awd::make_backend_spec(spec.scase, 0.0, 0));
    build_ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
    if (!built.is_ok()) {
      out.fail("backend build failed");
      continue;
    }
    ReplayInput in;
    in.scase = &spec.scase;
    in.attack = spec.attack;
    in.seed = run_seed(spec.base_seed, 0);
    in.backend = std::shared_ptr<const awd::Backend>(std::move(built).value());
    in.stream_id = i;
    replay.add(replay_stream(in, &spans));
    replay_again.add(replay_stream(in, nullptr));
  }
  if (replay.mismatches) out.fail("layer replay differs from DetectionSystem: " + replay.first_mismatch);
  if (!replay.same_shape(replay_again)) out.fail("replay shape counts differ on repeat");

  const std::map<std::string, SpanLog::Stat> by = spans.by_name();
  const auto mean_ns = [&by](const char* name) {
    const auto it = by.find(name);
    return it == by.end() ? 0.0 : it->second.mean_ns();
  };
  const double rsteps = static_cast<double>(std::max<std::uint64_t>(1, replay.steps));

  out.add("sim.step_ns", mean_ns("sim.step"), "ns");
  out.add("detect.logger.log_ns", mean_ns("detect.logger.log"), "ns");
  out.add("detect.adaptive.step_ns", mean_ns("detect.adaptive.step"), "ns");
  out.add("detect.adaptive.evals_per_step", static_cast<double>(replay.evaluations) / rsteps, "count");
  out.add("detect.adaptive.shrink_frac", static_cast<double>(replay.shrinks) / rsteps, "ratio");
  out.add("detect.adaptive.mean_window", static_cast<double>(replay.window_sum) / rsteps, "steps");
  out.add("detect.fixed.step_ns", mean_ns("detect.fixed.step"), "ns");
  out.add("reach.box.estimate_ns", mean_ns("reach.box.estimate"), "ns");
  out.add("reach.table.estimate_ns", 0.0, "ns");
  out.add("reach.seed_unavailable_frac", static_cast<double>(replay.seed_unavailable) / rsteps, "ratio");
  out.add("reach.fallback_frac", static_cast<double>(replay.fallbacks) / rsteps, "ratio");
  out.add("reach.box.build_ms", mean(build_ms), "ms");
  out.add("reach.table.build_ms", 0.0, "ms");
  out.add("fault.health.step_ns", mean_ns("fault.health.step"), "ns");
  out.add("fault.degraded_frac", static_cast<double>(replay.degraded) / rsteps, "ratio");
  out.add("core.metrics.observe_ns", 0.0, "ns");
  out.add("core.create_us", 0.0, "us");
  out.add("core.experiment.create_us", mean_ns("core.experiment.create") * 1e-3, "us");
  out.add("core.experiment.run_ms", mean_ns("core.experiment.run") * 1e-6, "ms");
  out.add("core.experiment.score_us", mean_ns("core.experiment.score") * 1e-3, "us");
  out.add("core.experiment.reduce_us", mean_ns("core.experiment.reduce") * 1e-3, "us");
  out.add("core.parallel.idle_frac", 1.0 - busy_ns / (static_cast<double>(threads) * wall_ns), "ratio");
  for (const char* name : {"serve.submit_us", "serve.drain_us"}) out.add(name, 0.0, "us");
  out.add("serve.step_ns_per_stream", 0.0, "ns");
  out.add("serve.shard_skew", 0.0, "ratio");
  out.add("serve.parallel_speedup", 0.0, "x");
  out.add("serve.dump_us", 0.0, "us");
  out.add("serve.dumps_per_kstep", 0.0, "count");
  out.add("obs.recorder.record_ns", 0.0, "ns");
  out.add("obs.events_per_kstep", 0.0, "count");
  out.add("shape.alarm_edges_per_kstep", static_cast<double>(replay.alarm_edges) * 1000.0 / rsteps, "count");
  out.add("shape.box_step_frac", 1.0, "ratio");
  out.add("shape.table_step_frac", 0.0, "ratio");
  out.add("shape.ckpt_bytes_per_stream", 0.0, "B");
  out.add("trace.overhead_frac", 1.0 - (steps / traced_s) / (steps / untraced_s), "ratio");

  out.details.obj("settings", settings_json(threads, cells.size()))
      .num("untraced_steps_per_s", 2.0 * steps / untraced_s)
      .num("traced_steps_per_s", 2.0 * steps / traced_s)
      .obj("replay", replay.json());
  return out;
}

}  // namespace

RunOutput run_campaign(const RunArgs& args, SpanLog& spans) {
  if (args.workload != "campaign_table2") {
    throw std::invalid_argument("unknown workload: " + args.workload);
  }
  return args.trace ? campaign_traced(args, spans) : campaign_end_to_end(args);
}

}  // namespace perfbench
