// serve.cpp — the two StreamEngine workloads.
//
// Load shape: one process, min(4, nproc) engine threads (the calling thread
// is worker 0), closed loop — the benchmark calls step_all() once per control
// period and starts the next tick when it returns.  Every finished stream
// is drained and replaced by the next spec of the same family, so the
// population stays constant and admission runs all the time.  The initial
// population gets staggered lengths in [L, 2L) so that finishes (and with
// them admissions) spread evenly over ticks instead of arriving as one wave
// every L ticks.  Specs are a pure function of (workload seed, index),
// planned before the timed phase (see SpecPool); the engine receives only
// the specs.
#include <algorithm>
#include <array>
#include <bit>
#include <map>
#include <memory>
#include <stdexcept>

#include "bench.hpp"
#include "replay.hpp"

namespace perfbench {

namespace {

using awd::AttackKind;
using awd::BackendKind;

struct ServeWorkload {
  std::string name;
  std::vector<awd::SimulatorCase> families;
  std::vector<AttackKind> attacks;
  std::size_t population = 0;
  bool fault_plans = false;
  std::size_t deadline_budget = 0;
  std::size_t replay_streams = 0;  ///< streams replayed layer by layer
};

constexpr std::size_t kRatioPrefix = 2048;  ///< specs the exact-per-seed ratios are scored over
constexpr std::size_t kTracedTicks = 600;   ///< length of each traced pass (fixed work)
constexpr std::size_t kSliceTicks = 150;    ///< length of the 1-thread vs N-thread slice

ServeWorkload make_workload(std::string_view name) {
  ServeWorkload w;
  w.name = std::string(name);
  if (name == "serve_steady") {
    // The table backend serves two families; the other two walk the box.
    for (const char* key : {"aircraft_pitch", "vehicle_turning", "series_rlc", "dc_motor"}) {
      awd::SimulatorCase c = awd::simulator_case(key);
      const std::string_view k = key;
      c.reach_backend =
          k == "aircraft_pitch" || k == "series_rlc" ? BackendKind::kTable : BackendKind::kBox;
      w.families.push_back(std::move(c));
    }
    w.attacks = {AttackKind::kNone, AttackKind::kBias, AttackKind::kDelay, AttackKind::kReplay,
                 AttackKind::kFreeze};
    w.population = 1024;
    w.replay_streams = 32;
  } else if (name == "serve_faulted_hd") {
    // 12 states: a table grid would exceed kMaxTableCells, so box only.
    w.families.push_back(awd::simulator_case("quadrotor"));
    w.attacks = {AttackKind::kBias, AttackKind::kStealthyRamp, AttackKind::kIntermittentBias,
                 AttackKind::kJitterReplay, AttackKind::kCoordinatedBias};
    w.population = 256;
    w.fault_plans = true;
    w.deadline_budget = 14;
    w.replay_streams = 16;
  } else {
    throw std::invalid_argument("unknown serve workload: " + std::string(name));
  }
  return w;
}

struct Descriptor {
  std::size_t family = 0;
  AttackKind attack = AttackKind::kNone;
  std::uint64_t seed = 0;
  std::uint64_t fault_seed = 0;
  std::size_t steps = 0;
};

Descriptor describe(const ServeWorkload& w, std::uint64_t seed, std::size_t index) {
  Descriptor d;
  d.family = index % w.families.size();
  d.attack = w.attacks[mix(seed, index, 1) % w.attacks.size()];
  d.seed = mix(seed, index, 2);
  d.fault_seed = mix(seed, index, 3);
  const std::size_t len = w.families[d.family].steps;
  d.steps = index < w.population ? len + index * len / w.population : len;
  return d;
}

awd::FaultPlan fault_plan(const ServeWorkload& w, const Descriptor& d) {
  return w.fault_plans ? awd::FaultPlan::random(d.fault_seed, d.steps) : awd::FaultPlan{};
}

awd::StreamSpec make_spec(const ServeWorkload& w, const Descriptor& d, awd::FaultPlan plan) {
  awd::StreamSpec spec;
  spec.scase = w.families[d.family];
  spec.attack = d.attack;
  spec.seed = d.seed;
  spec.steps = d.steps;
  spec.options.deadline_budget = w.deadline_budget;
  spec.options.fault_plan = std::move(plan);
  return spec;
}

/// The shipping serving defaults.
awd::StreamEngineOptions engine_options(const ServeWorkload& w, std::size_t threads) {
  awd::StreamEngineOptions o;
  o.threads = threads;
  o.max_streams = w.population;
  o.queue_capacity = w.population;
  o.lean_records = true;
  o.per_step_obs = false;
  o.share_deadline_estimators = true;
  o.flight_recorder_depth = 256;
  o.forensics_dir = "";  // dumps stay in memory
  return o;
}

Json settings_json(const ServeWorkload& w, std::size_t threads) {
  const awd::StreamEngineOptions o = engine_options(w, threads);
  std::string families = "[";
  for (std::size_t f = 0; f < w.families.size(); ++f) {
    if (f) families += ", ";
    families += json_string(w.families[f].key + ":" +
                            std::string(awd::reach::to_string(w.families[f].reach_backend)));
  }
  families += "]";
  std::string attacks = "[";
  for (std::size_t i = 0; i < w.attacks.size(); ++i) {
    if (i) attacks += ", ";
    attacks += json_string(awd::core::to_string(w.attacks[i]));
  }
  attacks += "]";
  Json j;
  j.str("load", "closed loop: next step_all() when the previous returns")
      .count("population", w.population)
      .str("churn", "finished streams drained and replaced by the same family")
      .count("threads", threads)
      .raw("families", families)
      .raw("attacks", attacks)
      .flag("fault_plans", w.fault_plans)
      .count("deadline_budget", w.deadline_budget)
      .flag("lean_records", o.lean_records)
      .flag("per_step_obs", o.per_step_obs)
      .count("flight_recorder_depth", o.flight_recorder_depth)
      .str("dumps", "in memory")
      .flag("obs_enabled", awd::obs::enabled());
  return j;
}

/// The seeded traffic plan, generated ahead of use: a descriptor and a
/// fault plan per spec index.  The StreamSpec itself (a copy of the
/// family's case plus the descriptor) is assembled when it is submitted, so
/// the plan's memory does not swamp the program's in peak RSS.
class SpecPool {
 public:
  SpecPool(const ServeWorkload& w, std::uint64_t seed) : w_(w), seed_(seed) {}

  void generate_upto(std::size_t n) {
    while (descs_.size() < n) {
      descs_.push_back(describe(w_, seed_, descs_.size()));
      plans_.push_back(fault_plan(w_, descs_.back()));
    }
  }
  /// Spec i, once; one planned here (the plan ran dry) counts as late.
  awd::StreamSpec take(std::size_t i) {
    if (i >= descs_.size()) {
      ++late_;
      generate_upto(i + 1);
    }
    return make_spec(w_, descs_[i], std::move(plans_[i]));
  }
  std::vector<awd::StreamSpec> copies(std::size_t n) {
    generate_upto(n);
    std::vector<awd::StreamSpec> out;
    for (std::size_t i = 0; i < n; ++i) out.push_back(make_spec(w_, descs_[i], plans_[i]));
    return out;
  }
  [[nodiscard]] std::size_t late() const noexcept { return late_; }

 private:
  const ServeWorkload& w_;
  std::uint64_t seed_;
  std::vector<Descriptor> descs_;
  std::vector<awd::FaultPlan> plans_;
  std::size_t late_ = 0;
};

struct Drained {
  std::size_t index = 0;
  awd::StreamResult result;
};

/// One engine driven in the closed loop.
class ClosedLoop {
 public:
  ClosedLoop(const ServeWorkload& w, SpecPool& pool, const awd::StreamEngineOptions& options,
             SpanLog* spans)
      : w_(w), pool_(pool), engine_(options), spans_(spans),
        running_by_family_(w.families.size(), 0) {}

  /// Submit the initial population (spec indices [0, initial.size())).
  void fill(std::vector<awd::StreamSpec> initial) {
    for (awd::StreamSpec& spec : initial) submit_(next_index_++, std::move(spec), -1);
  }

  /// One closed-loop iteration: step_all, drain what finished, replace it.
  std::size_t tick() {
    std::uint64_t expected = 0;
    for (std::size_t f = 0; f < w_.families.size(); ++f) {
      expected += running_by_family_[f];
      by_kind[static_cast<std::size_t>(w_.families[f].reach_backend)] += running_by_family_[f];
    }
    const ScopedSpan loop_span(spans_, "serve.tick", -1, 0, ticks);
    const std::uint64_t t0 = now_ns();
    std::size_t stepped = 0;
    {
      const ScopedSpan s(spans_, "serve.step_all", loop_span.index(), 0, ticks);
      stepped = engine_.step_all();
    }
    const std::uint64_t t1 = now_ns();
    tick_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
    step_all_ns += static_cast<double>(t1 - t0);
    ++attempted;
    if (stepped != expected) ++failed;
    steps += stepped;
    const std::uint64_t done = ticks++;

    const auto [lo, hi] = inflight_.equal_range(done);
    std::size_t replacements = 0;
    for (auto it = lo; it != hi; ++it) {
      const auto [id, index] = it->second;
      awd::Result<awd::StreamResult> r = [&] {
        const ScopedSpan s(spans_, "serve.drain", loop_span.index(), id, done);
        return engine_.drain(id);
      }();
      ++attempted;
      --running_by_family_[index % w_.families.size()];
      ++replacements;
      if (!r.is_ok() || !r.value().status.is_ok()) {
        ++failed;
        continue;
      }
      drained.push_back({index, std::move(r).value()});
    }
    inflight_.erase(lo, hi);
    for (std::size_t k = 0; k < replacements; ++k) {
      const std::size_t index = next_index_++;
      submit_(index, pool_.take(index), loop_span.index());
    }
    if (engine_.snapshot().finished != 0) ++failed;  // a finish the loop did not expect
    return stepped;
  }

  [[nodiscard]] std::vector<awd::StreamId> running_ids(std::size_t limit) const {
    std::vector<awd::StreamId> ids;
    for (const auto& [tick, entry] : inflight_) {
      if (ids.size() == limit) break;
      ids.push_back(entry.first);
    }
    return ids;
  }

  awd::StreamEngine& engine() noexcept { return engine_; }
  [[nodiscard]] std::size_t next_index() const noexcept { return next_index_; }

  std::vector<Drained> drained;
  std::vector<double> tick_ms;
  double step_all_ns = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t ticks = 0;
  std::uint64_t steps = 0;
  std::array<std::uint64_t, 3> by_kind{};  ///< stream-steps per reach::BackendKind

 private:
  void submit_(std::size_t index, awd::StreamSpec spec, std::int64_t parent) {
    const std::size_t len = spec.steps;
    awd::Result<awd::StreamId> r = [&] {
      const ScopedSpan s(spans_, "serve.submit", parent, index, ticks);
      return engine_.submit(std::move(spec));
    }();
    ++attempted;
    if (!r.is_ok()) {
      ++failed;
      return;
    }
    inflight_.emplace(ticks + len - 1, std::make_pair(r.value(), index));
    ++running_by_family_[index % w_.families.size()];
  }

  const ServeWorkload& w_;
  SpecPool& pool_;
  awd::StreamEngine engine_;
  SpanLog* spans_;
  std::vector<std::uint64_t> running_by_family_;
  std::size_t next_index_ = 0;
  /// finish tick → (stream id, spec index)
  std::multimap<std::uint64_t, std::pair<awd::StreamId, std::size_t>> inflight_;
};

/// FNV-1a over every drained result, in drain order.
std::uint64_t results_signature(const std::vector<Drained>& drained) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto feed = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  const auto feed_metrics = [&](const awd::RunMetrics& m) {
    feed(std::bit_cast<std::uint64_t>(m.fp_rate));
    feed(m.first_alarm_after_onset.value_or(~0ULL));
    feed(m.detection_delay.value_or(~0ULL));
    feed(m.deadline_at_onset);
    feed((m.fp_experiment ? 1u : 0u) | (m.deadline_miss ? 2u : 0u) |
         (m.false_negative ? 4u : 0u));
    feed(m.first_unsafe.value_or(~0ULL));
  };
  for (const Drained& d : drained) {
    feed(d.index);
    feed(d.result.steps);
    feed_metrics(d.result.adaptive);
    feed_metrics(d.result.fixed);
    feed(static_cast<std::uint64_t>(d.result.final_health));
    feed(d.result.adaptive_evaluations);
  }
  return h;
}

std::vector<std::shared_ptr<const awd::Backend>> family_backends(const ServeWorkload& w) {
  std::vector<std::shared_ptr<const awd::Backend>> out;
  for (const awd::SimulatorCase& c : w.families) {
    awd::Result<std::unique_ptr<awd::Backend>> b =
        awd::make_backend(awd::make_backend_spec(c, 0.0, w.deadline_budget));
    if (!b.is_ok()) throw std::runtime_error("backend build failed for " + c.key);
    out.emplace_back(std::move(b).value());
  }
  return out;
}

/// Check every drained result against a standalone DetectionSystem +
/// StreamingMetrics run of the same spec (bitwise).  Returns mismatches.
std::uint64_t verify_drained(const ServeWorkload& w, std::uint64_t seed,
                             const std::vector<Drained>& drained, std::size_t threads,
                             std::string& first_problem) {
  const auto backends = family_backends(w);
  std::vector<std::uint8_t> ok(drained.size(), 0);
  awd::core::parallel_for(drained.size(), threads, [&](std::size_t i) {
    const Drained& d = drained[i];
    const Descriptor desc = describe(w, seed, d.index);
    const awd::StreamSpec spec = make_spec(w, desc, fault_plan(w, desc));
    awd::DetectionSystemOptions opts = spec.options;
    opts.lean_records = true;
    opts.per_step_obs = false;
    opts.shared_deadline_estimator = backends[desc.family];
    awd::Result<awd::DetectionSystem> created =
        awd::DetectionSystem::create(spec.scase, spec.attack, spec.seed, opts);
    if (!created.is_ok()) return;
    awd::DetectionSystem sys = std::move(created).value();
    awd::MetricsOptions m = spec.metrics;
    if (m.post_attack_guard == 0) m.post_attack_guard = spec.scase.max_window;
    awd::StreamingMetrics metrics(spec.scase.attack_start, spec.scase.attack_duration, m);
    awd::StepRecord rec;
    for (std::size_t k = 0; k < spec.steps; ++k) {
      sys.step_into(rec);
      metrics.observe(rec);
    }
    ok[i] = d.result.steps == spec.steps &&
            same_run_metrics(d.result.adaptive, metrics.finish(awd::Strategy::kAdaptive)) &&
            same_run_metrics(d.result.fixed, metrics.finish(awd::Strategy::kFixed)) &&
            d.result.final_health == rec.health &&
            d.result.adaptive_evaluations == sys.adaptive_evaluations();
  });
  std::uint64_t bad = 0;
  for (std::size_t i = 0; i < ok.size(); ++i) {
    if (ok[i]) continue;
    if (bad++ == 0) {
      first_problem = "drained stream (spec " + std::to_string(drained[i].index) +
                      ") differs from its standalone run";
    }
  }
  return bad;
}

/// Adaptive deadline-miss share of attacked runs and FP-experiment share of
/// runs, over spec indices [0, prefix) — exact for a given seed.
struct Ratios {
  double deadline_miss_frac = 0.0;
  double fp_run_frac = 0.0;
  bool complete = false;
};

Ratios prefix_ratios(const ServeWorkload& w, std::uint64_t seed,
                     const std::vector<Drained>& drained, std::size_t prefix) {
  Ratios r;
  if (drained.size() < prefix) return r;
  std::uint64_t attacked = 0;
  std::uint64_t misses = 0;
  std::uint64_t fps = 0;
  for (std::size_t i = 0; i < prefix; ++i) {
    if (drained[i].index != i) return r;  // drains run in spec order; anything else is a bug
    const awd::RunMetrics& m = drained[i].result.adaptive;
    if (describe(w, seed, i).attack != AttackKind::kNone) {
      ++attacked;
      if (m.deadline_miss) ++misses;
    }
    if (m.fp_experiment) ++fps;
  }
  r.deadline_miss_frac = attacked ? static_cast<double>(misses) / static_cast<double>(attacked) : 0.0;
  r.fp_run_frac = static_cast<double>(fps) / static_cast<double>(prefix);
  r.complete = true;
  return r;
}

RunOutput serve_end_to_end(const ServeWorkload& w, const RunArgs& a) {
  RunOutput out;
  const std::size_t threads = bench_threads();
  const awd::StreamEngineOptions options = engine_options(w, threads);
  SpecPool pool(w, a.seed);
  pool.generate_upto(w.population * 4);

  // Set-up: engine construction plus admission of the initial population,
  // per-family backend builds included (each fresh engine starts with an
  // empty backend cache).  Timed on throwaway engines, one alive at a time,
  // in five rounds over every CPU (see pinned_round): two before the
  // serving engine exists, one after the timed phase and two at the end,
  // so neither the ticks nor peak_rss_mb see a second engine.  The median
  // over rounds of each round's fastest set-up is reported.
  std::vector<std::vector<double>> setup_s;
  const auto setup_round = [&] {
    setup_s.push_back(pinned_round(0.15, [&] {
      std::vector<awd::StreamSpec> initial = pool.copies(w.population);
      const std::uint64_t t0 = now_ns();
      ClosedLoop trial(w, pool, options, nullptr);
      trial.fill(std::move(initial));
      const double s = seconds_between(t0, now_ns());
      if (trial.failed != 0) out.fail("initial admission failed");
      return s;
    }));
  };
  setup_round();
  setup_round();
  // The engine that serves is built unpinned, so its workers may spread.
  auto loop = std::make_unique<ClosedLoop>(w, pool, options, nullptr);
  loop->fill(pool.copies(w.population));
  if (loop->failed != 0) out.fail("initial admission failed");

  // Warm-up: past the first finishes, so churn is running when timing
  // starts, and long enough for the throughput to settle.
  const std::size_t len = w.families[0].steps;
  const std::uint64_t w0 = now_ns();
  std::uint64_t warm_steps = 0;
  while (loop->ticks < len + 50 || seconds_between(w0, now_ns()) < 2.0) warm_steps += loop->tick();
  const double warm_rate = static_cast<double>(warm_steps) / seconds_between(w0, now_ns());
  pool.generate_upto(loop->next_index() + w.population +
                     static_cast<std::size_t>(1.5 * warm_rate * a.seconds / static_cast<double>(len)));

  loop->tick_ms.clear();
  const std::uint64_t steps0 = loop->steps;
  const std::uint64_t ticks0 = loop->ticks;
  const std::uint64_t t_start = now_ns();
  // Throughput is the median over ten equal windows, so a burst of host
  // contention in one window does not move it.
  std::vector<double> window_rates;
  std::uint64_t window_start = t_start;
  std::uint64_t window_steps = steps0;
  const double window_s = a.seconds / 10.0;
  do {
    loop->tick();
    const std::uint64_t now = now_ns();
    if (seconds_between(window_start, now) >= window_s) {
      window_rates.push_back(static_cast<double>(loop->steps - window_steps) /
                             seconds_between(window_start, now));
      window_start = now;
      window_steps = loop->steps;
    }
  } while (seconds_between(t_start, now_ns()) < a.seconds);
  const double timed_s = seconds_between(t_start, now_ns());
  const double steps_per_s = median(window_rates);
  const std::vector<double> tick_ms = std::move(loop->tick_ms);
  const std::uint64_t timed_ticks = loop->ticks - ticks0;
  const TailPercentile p99 = tail_percentile(tick_ms);
  // Read before checkpoint/restore, verification and set-up rounds add
  // engines and copies of their own.
  const double peak_rss = peak_rss_mib();
  setup_round();

  // Checkpoint of the mid-run engine and restore into a fresh engine,
  // after the timed phase so the stall stays out of the tick latencies.
  std::vector<double> ckpt_ms;
  std::vector<double> restore_ms;
  std::vector<std::uint8_t> image;
  for (int rep = 0; rep < 3; ++rep) {
    const std::uint64_t t0 = now_ns();
    awd::Result<std::vector<std::uint8_t>> img = loop->engine().checkpoint();
    ckpt_ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
    ++out.attempted;
    if (!img.is_ok()) {
      ++out.failed;
      continue;
    }
    image = std::move(img).value();
  }
  const std::size_t running = loop->engine().snapshot().running;
  for (int rep = 0; rep < 3; ++rep) {
    awd::StreamEngine fresh(options);
    const std::uint64_t t0 = now_ns();
    const awd::Status st = fresh.restore(image);
    restore_ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
    ++out.attempted;
    if (!st.is_ok()) ++out.failed;
  }

  // The exact-per-seed ratios need their whole prefix drained.
  while (loop->drained.size() < kRatioPrefix) loop->tick();
  const Ratios ratios = prefix_ratios(w, a.seed, loop->drained, kRatioPrefix);
  if (!ratios.complete) out.fail("ratio prefix incomplete or out of order");

  std::string problem;
  const std::uint64_t mismatched = verify_drained(w, a.seed, loop->drained, threads, problem);
  if (mismatched) out.fail(problem);
  setup_round();
  setup_round();

  out.attempted += loop->attempted;
  out.failed += loop->failed + mismatched;
  if (loop->failed) out.fail("engine operations failed");
  const double failed_frac =
      static_cast<double>(out.failed) / static_cast<double>(std::max<std::uint64_t>(1, out.attempted));

  out.add("setup_s", median_of_minima(setup_s), "s");
  out.add("steps_per_s", steps_per_s, "steps/s");
  out.add("tick_p50_ms", median(tick_ms), "ms");
  out.add("tick_p99_ms", p99.value, "ms");
  out.add("checkpoint_ms", median(ckpt_ms), "ms");
  out.add("restore_ms", median(restore_ms), "ms");
  out.add("ckpt_bytes_per_stream",
          running ? static_cast<double>(image.size()) / static_cast<double>(running) : 0.0, "B");
  out.add("peak_rss_mb", peak_rss, "MiB");
  out.add("deadline_miss_frac", ratios.deadline_miss_frac, "ratio");
  out.add("fp_run_frac", ratios.fp_run_frac, "ratio");
  out.add("failed_frac", failed_frac, "ratio");

  const std::array<double, 3> tq = quartiles(tick_ms);
  Json tick;
  tick.count("ticks", timed_ticks)
      .count("tail_percentile", static_cast<std::uint64_t>(p99.pct))
      .count("tail_samples_beyond", p99.beyond)
      .num("q1_ms", tq[0])
      .num("q3_ms", tq[2]);
  out.details.obj("settings", settings_json(w, threads))
      .num("timed_s", timed_s)
      .obj("tick", tick)
      .raw("window_steps_per_s", json_array(window_rates))
      .raw("setup_round_minima_s", json_array(minima(setup_s)))
      .count("drained_streams", loop->drained.size())
      .count("verified_streams", loop->drained.size())
      .count("ratio_prefix", kRatioPrefix)
      .count("specs_generated_late", pool.late())
      .count("ckpt_image_bytes", image.size())
      .count("ckpt_running_streams", running);
  return out;
}

/// One fixed-length closed-loop pass of the traced run.
struct Pass {
  std::unique_ptr<SpecPool> pool;
  std::unique_ptr<ClosedLoop> loop;
  double seconds = 0.0;
  std::uint64_t signature = 0;
  std::uint64_t events = 0;
  std::uint64_t dumps = 0;
  std::size_t ckpt_bytes = 0;
  std::size_t running = 0;
  std::vector<double> skew;  ///< max ÷ mean streams per shard, sampled
};

Pass run_pass(const ServeWorkload& w, std::uint64_t seed, std::size_t threads,
              std::size_t ticks, SpanLog* spans) {
  Pass p;
  p.pool = std::make_unique<SpecPool>(w, seed);
  p.pool->generate_upto(w.population * (2 + ticks / w.families[0].steps));
  p.loop = std::make_unique<ClosedLoop>(w, *p.pool, engine_options(w, threads), spans);
  p.loop->fill(p.pool->copies(w.population));
  const std::uint64_t events0 = awd::obs::EventLog::global().logged();
  const std::uint64_t t0 = now_ns();
  for (std::size_t k = 0; k < ticks; ++k) {
    p.loop->tick();
    if (spans && k % 200 == 0) {
      const awd::EngineIntrospection intro = p.loop->engine().introspect();
      std::size_t max_streams = 0;
      std::size_t total = 0;
      for (const awd::ShardIntrospection& s : intro.shard_info) {
        max_streams = std::max(max_streams, s.streams);
        total += s.streams;
      }
      if (total) {
        p.skew.push_back(static_cast<double>(max_streams) * static_cast<double>(intro.shard_info.size()) /
                         static_cast<double>(total));
      }
    }
  }
  p.seconds = seconds_between(t0, now_ns());
  p.events = awd::obs::EventLog::global().logged() - events0;
  p.dumps = p.loop->engine().introspect().dumps_written;
  p.signature = results_signature(p.loop->drained);
  awd::Result<std::vector<std::uint8_t>> image = p.loop->engine().checkpoint();
  p.running = p.loop->engine().snapshot().running;
  if (image.is_ok()) p.ckpt_bytes = image.value().size();
  return p;
}

RunOutput serve_traced(const ServeWorkload& w, const RunArgs& a, SpanLog& spans) {
  RunOutput out;
  const std::size_t threads = bench_threads();

  // Traced, untraced, traced: all three serve the same seeded traffic, so
  // everything the seed fixes must agree across them.
  std::vector<Pass> untraced;
  std::vector<Pass> traced;
  traced.push_back(run_pass(w, a.seed, threads, kTracedTicks, &spans));
  untraced.push_back(run_pass(w, a.seed, threads, kTracedTicks, nullptr));
  traced.push_back(run_pass(w, a.seed, threads, kTracedTicks, &spans));
  Pass& t1 = traced.front();
  for (const std::vector<Pass>* group : {&untraced, &traced}) {
    for (const Pass& p : *group) {
      out.attempted += p.loop->attempted;
      out.failed += p.loop->failed;
      if (p.signature != t1.signature || p.events != t1.events || p.dumps != t1.dumps ||
          p.ckpt_bytes != t1.ckpt_bytes || p.loop->drained.size() != t1.loop->drained.size()) {
        out.fail("repeated pass with the same seed differs (results, events, dumps or ckpt size)");
      }
    }
  }

  // serve.dump_us: the encoder the auto-dump runs, on running streams.
  for (const awd::StreamId id : t1.loop->running_ids(32)) {
    awd::Result<std::vector<std::uint8_t>> dump = [&] {
      const ScopedSpan s(&spans, "serve.dump_stream", -1, id, 0);
      return t1.loop->engine().dump_stream(id);
    }();
    ++out.attempted;
    if (!dump.is_ok()) ++out.failed;
  }

  std::string problem;
  const std::uint64_t mismatched = verify_drained(w, a.seed, t1.loop->drained, threads, problem);
  if (mismatched) {
    out.failed += mismatched;
    out.fail(problem);
  }

  // The same slice at 1 thread and at min(4, nproc) threads.
  const Pass serial = run_pass(w, a.seed, 1, kSliceTicks, nullptr);
  const Pass parallel = run_pass(w, a.seed, threads, kSliceTicks, nullptr);
  if (serial.signature != parallel.signature) out.fail("1-thread and N-thread slices differ");

  // Layer-by-layer replay of a seeded sample (twice: shape counts must repeat).
  const auto backends = family_backends(w);
  ReplayStats replay;
  ReplayStats replay_again;
  for (std::size_t j = 0; j < w.replay_streams; ++j) {
    const std::size_t index = w.population + mix(a.seed, j, 7) % w.population;
    const Descriptor desc = describe(w, a.seed, index);
    const awd::StreamSpec spec = make_spec(w, desc, fault_plan(w, desc));
    ReplayInput in;
    in.scase = &spec.scase;
    in.attack = spec.attack;
    in.seed = spec.seed;
    in.steps = spec.steps;
    in.options = spec.options;
    in.options.lean_records = true;
    in.options.per_step_obs = false;
    in.backend = backends[desc.family];
    in.recorder_depth = 256;
    in.metrics.post_attack_guard = spec.scase.max_window;
    in.stream_id = index;
    replay.add(replay_stream(in, &spans));
    replay_again.add(replay_stream(in, nullptr));
    // core.create_us: admission's pipeline construction with a shared backend.
    awd::DetectionSystemOptions opts = in.options;
    opts.shared_deadline_estimator = in.backend;
    const ScopedSpan s(&spans, "core.create", -1, index, 0);
    if (!awd::DetectionSystem::create(spec.scase, spec.attack, spec.seed, opts).is_ok()) {
      out.fail("DetectionSystem::create failed for a replayed spec");
    }
  }
  if (replay.mismatches) out.fail("layer replay differs from DetectionSystem: " + replay.first_mismatch);
  if (!replay.same_shape(replay_again)) out.fail("replay shape counts differ on repeat");

  // Backend construction per kind (what admission pays per new family).
  std::array<std::vector<double>, 3> build_ms;
  for (int rep = 0; rep < 3; ++rep) {
    for (const awd::SimulatorCase& c : w.families) {
      const std::uint64_t t0 = now_ns();
      const bool ok =
          awd::make_backend(awd::make_backend_spec(c, 0.0, w.deadline_budget)).is_ok();
      build_ms[static_cast<std::size_t>(c.reach_backend)].push_back(
          static_cast<double>(now_ns() - t0) * 1e-6);
      if (!ok) out.fail("backend build failed");
    }
  }

  const std::map<std::string, SpanLog::Stat> by = spans.by_name();
  const auto mean_ns = [&by](const char* name) {
    const auto it = by.find(name);
    return it == by.end() ? 0.0 : it->second.mean_ns();
  };
  double traced_steps = 0.0;
  double traced_s = 0.0;
  double untraced_steps = 0.0;
  double untraced_s = 0.0;
  double step_all_ns = 0.0;
  std::vector<double> skew;
  for (const Pass& p : traced) {
    traced_steps += static_cast<double>(p.loop->steps);
    traced_s += p.seconds;
    step_all_ns += p.loop->step_all_ns;
    skew.insert(skew.end(), p.skew.begin(), p.skew.end());
  }
  for (const Pass& p : untraced) {
    untraced_steps += static_cast<double>(p.loop->steps);
    untraced_s += p.seconds;
  }
  const double kstep = static_cast<double>(t1.loop->steps) / 1000.0;
  const double rsteps = static_cast<double>(std::max<std::uint64_t>(1, replay.steps));
  const auto kind_share = [&](BackendKind k) {
    return static_cast<double>(t1.loop->by_kind[static_cast<std::size_t>(k)]) /
           static_cast<double>(std::max<std::uint64_t>(1, t1.loop->steps));
  };

  out.add("sim.step_ns", mean_ns("sim.step"), "ns");
  out.add("detect.logger.log_ns", mean_ns("detect.logger.log"), "ns");
  out.add("detect.adaptive.step_ns", mean_ns("detect.adaptive.step"), "ns");
  out.add("detect.adaptive.evals_per_step", static_cast<double>(replay.evaluations) / rsteps, "count");
  out.add("detect.adaptive.shrink_frac", static_cast<double>(replay.shrinks) / rsteps, "ratio");
  out.add("detect.adaptive.mean_window", static_cast<double>(replay.window_sum) / rsteps, "steps");
  out.add("detect.fixed.step_ns", mean_ns("detect.fixed.step"), "ns");
  out.add("reach.box.estimate_ns", mean_ns("reach.box.estimate"), "ns");
  out.add("reach.table.estimate_ns", mean_ns("reach.table.estimate"), "ns");
  out.add("reach.seed_unavailable_frac", static_cast<double>(replay.seed_unavailable) / rsteps, "ratio");
  out.add("reach.fallback_frac", static_cast<double>(replay.fallbacks) / rsteps, "ratio");
  out.add("reach.box.build_ms", mean(build_ms[static_cast<std::size_t>(BackendKind::kBox)]), "ms");
  out.add("reach.table.build_ms", mean(build_ms[static_cast<std::size_t>(BackendKind::kTable)]), "ms");
  out.add("fault.health.step_ns", mean_ns("fault.health.step"), "ns");
  out.add("fault.degraded_frac", static_cast<double>(replay.degraded) / rsteps, "ratio");
  out.add("core.metrics.observe_ns", mean_ns("core.metrics.observe"), "ns");
  out.add("core.create_us", mean_ns("core.create") * 1e-3, "us");
  out.add("core.experiment.create_us", 0.0, "us");
  out.add("core.experiment.run_ms", 0.0, "ms");
  out.add("core.experiment.score_us", 0.0, "us");
  out.add("core.experiment.reduce_us", 0.0, "us");
  out.add("core.parallel.idle_frac", 0.0, "ratio");
  out.add("serve.submit_us", mean_ns("serve.submit") * 1e-3, "us");
  out.add("serve.drain_us", mean_ns("serve.drain") * 1e-3, "us");
  out.add("serve.step_ns_per_stream", step_all_ns / std::max(1.0, traced_steps), "ns");
  out.add("serve.shard_skew", mean(skew), "ratio");
  out.add("serve.parallel_speedup", serial.seconds / parallel.seconds, "x");
  out.add("serve.dump_us", mean_ns("serve.dump_stream") * 1e-3, "us");
  out.add("serve.dumps_per_kstep", static_cast<double>(t1.dumps) / kstep, "count");
  out.add("obs.recorder.record_ns", mean_ns("obs.recorder.record"), "ns");
  out.add("obs.events_per_kstep", static_cast<double>(t1.events) / kstep, "count");
  out.add("shape.alarm_edges_per_kstep", static_cast<double>(replay.alarm_edges) * 1000.0 / rsteps, "count");
  out.add("shape.box_step_frac", kind_share(BackendKind::kBox), "ratio");
  out.add("shape.table_step_frac", kind_share(BackendKind::kTable), "ratio");
  out.add("shape.ckpt_bytes_per_stream",
          t1.running ? static_cast<double>(t1.ckpt_bytes) / static_cast<double>(t1.running) : 0.0, "B");
  out.add("trace.overhead_frac",
          1.0 - (traced_steps / traced_s) / (untraced_steps / untraced_s), "ratio");

  out.details.obj("settings", settings_json(w, threads))
      .count("pass_ticks", kTracedTicks)
      .count("pass_steps", t1.loop->steps)
      .num("untraced_steps_per_s", untraced_steps / untraced_s)
      .num("traced_steps_per_s", traced_steps / traced_s)
      .count("slice_ticks", kSliceTicks)
      .num("slice_1_thread_s", serial.seconds)
      .num("slice_n_threads_s", parallel.seconds)
      .obj("replay", replay.json())
      .count("verified_streams", t1.loop->drained.size());
  return out;
}

}  // namespace

bool is_serve_workload(std::string_view name) {
  return name == "serve_steady" || name == "serve_faulted_hd";
}

RunOutput run_serve(const RunArgs& args, SpanLog& spans) {
  const ServeWorkload w = make_workload(args.workload);
  return args.trace ? serve_traced(w, args, spans) : serve_end_to_end(w, args);
}

}  // namespace perfbench
