#include "serve/stream_engine.hpp"

#include <cstdio>
#include <sstream>
#include <utility>

#include "obs/obs.hpp"
#include "serve/forensics.hpp"

namespace awd::serve {

namespace {

/// Engine observability: stream gauges, throughput counters, and the batch
/// timers (engine-level step_all plus per-shard batch duration).  The
/// per-pipeline stage timers stay available via per_step_obs.
struct ServeObs {
  obs::Gauge& running;
  obs::Gauge& queued;
  obs::Counter& steps;
  obs::Counter& admitted;
  obs::Counter& finished;
  obs::Counter& rejected;
  obs::Timer& step_all;
  obs::Timer& shard_step;
  // Introspection gauges, published after every batch
  // (StreamEngine::publish_introspection_).
  obs::Gauge& alarming;
  obs::Gauge& degraded;
  obs::Gauge& failsafe;
  obs::Gauge& recorder_frames;
  obs::Gauge& dumps_written;
  obs::Gauge& backends_box;
  obs::Gauge& backends_table;

  static ServeObs& get() {
    static ServeObs o{
        obs::Registry::global().gauge("awd_serve_streams_running",
                                      "streams currently stepping in the engine"),
        obs::Registry::global().gauge("awd_serve_streams_queued",
                                      "streams waiting for admission"),
        obs::Registry::global().counter("awd_serve_steps_total",
                                        "stream-steps executed by the engine"),
        obs::Registry::global().counter("awd_serve_streams_admitted_total",
                                        "streams admitted into the step loop"),
        obs::Registry::global().counter("awd_serve_streams_finished_total",
                                        "streams that completed their run"),
        obs::Registry::global().counter("awd_serve_streams_rejected_total",
                                        "submissions bounced by backpressure"),
        obs::Registry::global().timer("awd_serve_step_all",
                                      "one batched step across every running stream"),
        obs::Registry::global().timer("awd_serve_shard_step",
                                      "one shard's slice of a batched step"),
        obs::Registry::global().gauge("awd_serve_streams_alarming",
                                      "streams whose last step raised the adaptive alarm"),
        obs::Registry::global().gauge("awd_serve_streams_degraded",
                                      "streams currently in health state DEGRADED"),
        obs::Registry::global().gauge("awd_serve_streams_failsafe",
                                      "streams currently in health state FAILSAFE"),
        obs::Registry::global().gauge("awd_serve_recorder_frames",
                                      "flight-recorder frames retained across all streams"),
        obs::Registry::global().gauge("awd_serve_dumps_written",
                                      "automatic forensic dumps taken"),
        obs::Registry::global().gauge("awd_serve_backends_box",
                                      "cached box deadline backends"),
        obs::Registry::global().gauge("awd_serve_backends_table",
                                      "cached precomputed-table deadline backends"),
    };
    return o;
  }
};

}  // namespace

std::string StreamEngine::family_fingerprint(const core::SimulatorCase& scase,
                                             const core::DetectionSystemOptions& options) {
  // The spec fingerprint already hashes everything backend construction
  // reads (model matrices included), so two cases sharing a key but
  // differing in any construction input still get distinct cache entries.
  const std::uint64_t fp = reach::spec_fingerprint(
      core::make_backend_spec(scase, options.init_radius, options.deadline_budget));
  char buf[24];
  std::snprintf(buf, sizeof buf, "|%016llx", static_cast<unsigned long long>(fp));
  return scase.key + buf;
}

StreamEngine::StreamEngine(StreamEngineOptions options) : options_(std::move(options)) {
  if (options_.max_streams == 0) options_.max_streams = 1;
  const std::size_t threads = core::resolve_threads(options_.threads);
  if (threads > 1) pool_ = std::make_unique<core::ThreadPool>(threads);
  shards_.resize(threads);
  if (!options_.forensics_dir.empty()) {
    // Crash path: if the process dies (terminate/atexit flush), every
    // running stream's recorder lands in forensics_dir before the event
    // log and metrics are flushed.
    failure_hook_token_ = obs::add_failure_hook(
        [this] { (void)dump_all_streams(options_.forensics_dir, DumpReason::kCrash); });
  }
}

StreamEngine::~StreamEngine() {
  if (failure_hook_token_ != 0) obs::remove_failure_hook(failure_hook_token_);
}

std::size_t StreamEngine::shards() const noexcept { return shards_.size(); }

core::Result<StreamId> StreamEngine::submit(StreamSpec spec) {
  ServeObs& ob = ServeObs::get();
  if (core::Status s = spec.scase.check(); !s.is_ok()) return s;
  if (spec.steps == 0) spec.steps = spec.scase.steps;
  if (spec.steps == 0) {
    return core::Status{core::StatusCode::kInvalidInput, "stream has no steps to run"};
  }
  // StreamingMetrics::finish needs the onset inside the run, exactly as
  // compute_metrics needs it inside the trace.
  if (spec.scase.attack_start >= spec.steps) {
    return core::Status{core::StatusCode::kInvalidInput,
                        "attack onset outside the stream's run"};
  }
  // run_cell's guard policy: one maximal window past the attack.
  if (spec.metrics.post_attack_guard == 0) {
    spec.metrics.post_attack_guard = spec.scase.max_window;
  }

  if (running_.size() >= options_.max_streams &&
      pending_.size() >= options_.queue_capacity) {
    ++streams_rejected_;
    ob.rejected.inc();
    obs::EventLog::global().log(obs::EventKind::kAdmissionReject, 0, 0, 0,
                                static_cast<std::int64_t>(running_.size()),
                                static_cast<std::int64_t>(pending_.size()),
                                "engine full, queue at capacity");
    return core::Status{core::StatusCode::kBudgetExceeded,
                        "stream engine full (queue at capacity: step or drain, "
                        "then resubmit)"};
  }

  const StreamId id = next_id_++;
  if (running_.size() < options_.max_streams) {
    if (core::Status s = admit_(id, std::move(spec)); !s.is_ok()) return s;
  } else {
    pending_.emplace_back(id, std::move(spec));
  }
  ob.running.set(static_cast<std::int64_t>(running_.size()));
  ob.queued.set(static_cast<std::int64_t>(pending_.size()));
  return id;
}

core::Result<core::DetectionSystem> StreamEngine::build_system_(
    const StreamEngineOptions& policy, EstimatorCache& cache, const StreamSpec& spec) {
  core::DetectionSystemOptions opts = spec.options;  // spec is retained whole
  opts.lean_records = policy.lean_records;
  opts.per_step_obs = policy.per_step_obs;
  const bool share = policy.share_deadline_estimators && !opts.shared_deadline_estimator;
  std::string fingerprint;
  if (share) {
    fingerprint = family_fingerprint(spec.scase, opts);
    if (auto it = cache.find(fingerprint); it != cache.end()) {
      opts.shared_deadline_estimator = it->second;
    }
  }
  core::Result<core::DetectionSystem> system =
      core::DetectionSystem::create(spec.scase, spec.attack, spec.seed, std::move(opts));
  if (share && system.is_ok() && cache.find(fingerprint) == cache.end()) {
    cache.emplace(std::move(fingerprint), system.value().estimator_handle());
  }
  return system;
}

core::Status StreamEngine::admit_(StreamId id, StreamSpec&& spec) {
  core::Result<core::DetectionSystem> system =
      build_system_(options_, estimator_cache_, spec);
  if (!system.is_ok()) return system.status();

  core::StreamingMetrics metrics(spec.scase.attack_start, spec.scase.attack_duration,
                                 spec.metrics);
  place_runtime_(std::make_unique<StreamRuntime>(id, std::move(spec),
                                                 std::move(system).value(),
                                                 std::move(metrics)),
                 StreamLanes{});
  ++streams_admitted_;
  ServeObs::get().admitted.inc();
  return core::Status::ok();
}

void StreamEngine::place_runtime_(std::unique_ptr<StreamRuntime> runtime,
                                  const StreamLanes& lanes) {
  const StreamId id = runtime->id;
  const std::size_t steps_total = runtime->spec.steps;
  const std::size_t shard_index = next_shard_++ % shards_.size();
  Shard& shard = shards_[shard_index];
  std::size_t slot;
  if (!shard.free_slots.empty()) {
    slot = shard.free_slots.back();
    shard.free_slots.pop_back();
    shard.slots[slot] = std::move(runtime);
  } else {
    slot = shard.slots.size();
    shard.slots.push_back(std::move(runtime));
  }
  // Seed every SoA lane — a reused slot must not leak the previous
  // occupant's progress or outputs.
  shard.soa.ensure(slot);
  shard.soa.steps_total[slot] = steps_total;
  shard.soa.steps_done[slot] = lanes.steps_done;
  shard.soa.deadline[slot] = lanes.deadline;
  shard.soa.window[slot] = lanes.window;
  shard.soa.adaptive_alarm[slot] = lanes.adaptive_alarm;
  shard.soa.fixed_alarm[slot] = lanes.fixed_alarm;
  shard.soa.health[slot] = lanes.health;
  shard.soa.quarantined[slot] = 0;
  if (options_.flight_recorder_depth > 0) {
    if (shard.recorders.size() < shard.slots.size()) {
      shard.recorders.resize(shard.slots.size());
    }
    if (shard.recorders[slot]) {
      shard.recorders[slot]->clear();  // reused slot: forget the last occupant
    } else {
      shard.recorders[slot] =
          std::make_unique<obs::FlightRecorder>(options_.flight_recorder_depth);
    }
  }
  running_.emplace(id, std::make_pair(shard_index, slot));
}

void StreamEngine::admit_pending_() {
  while (!pending_.empty() && running_.size() < options_.max_streams) {
    std::pair<StreamId, StreamSpec> next = std::move(pending_.front());
    pending_.pop_front();
    const core::Status s = admit_(next.first, std::move(next.second));
    if (!s.is_ok()) {
      // The spec passed submit-time validation, so this is an estimator
      // wiring error; surface it through drain() instead of unwinding.
      StreamResult failed;
      failed.id = next.first;
      failed.status = s;
      finished_.emplace(next.first, std::move(failed));
      ++streams_finished_;
      ServeObs::get().finished.inc();
    }
  }
}

void StreamEngine::step_shard_(Shard& shard, std::size_t budget) {
  const obs::ScopedSpan span(ServeObs::get().shard_step, "serve.shard_step", "serve");
  const auto shard_index = static_cast<std::uint64_t>(&shard - shards_.data());
  obs::EventLog& events = obs::EventLog::global();
  shard.stepped = 0;
  StreamSoa& soa = shard.soa;
  // At most one pending dump per slot per batch — a flapping alarm must not
  // queue a dump (file write) for every rising edge inside a chunk.
  const auto dump_queued = [&shard](std::size_t slot) {
    for (const PendingDump& d : shard.pending_dumps) {
      if (d.slot == slot) return true;
    }
    return false;
  };
  for (std::size_t i = 0; i < shard.slots.size(); ++i) {
    if (!shard.slots[i]) continue;
    StreamRuntime& stream = *shard.slots[i];
    obs::FlightRecorder* recorder =
        i < shard.recorders.size() ? shard.recorders[i].get() : nullptr;
    // Advance this stream up to `budget` control periods while its state is
    // cache-hot.  Streams are independent, so the chunked interleaving is
    // invisible to per-stream results.  Progress and last-output lanes live
    // in the shard's SoA batch, so this sweep touches contiguous arrays
    // plus the one pipeline it is stepping.
    const std::size_t remaining = soa.steps_total[i] - soa.steps_done[i];
    const std::size_t chunk = remaining < budget ? remaining : budget;
    // Edge detectors carry across chunk and batch boundaries through the
    // SoA lanes — an alarm that stays up across batches is one event.
    bool prev_alarm = soa.adaptive_alarm[i] != 0;
    auto prev_health = static_cast<fault::HealthState>(soa.health[i]);
    bool prev_quarantined = soa.quarantined[i] != 0;
    for (std::size_t k = 0; k < chunk; ++k) {
      stream.system.step_into(shard.rec);
      stream.metrics.observe(shard.rec);
      if (recorder != nullptr) recorder->record(shard.rec);
      if (shard.rec.adaptive_alarm && !prev_alarm) {
        events.log(obs::EventKind::kAlarm, stream.id, shard_index, shard.rec.t,
                   static_cast<std::int64_t>(shard.rec.window),
                   static_cast<std::int64_t>(shard.rec.deadline), "adaptive");
        if (recorder != nullptr && !dump_queued(i)) {
          shard.pending_dumps.push_back({i, DumpReason::kAlarm, shard.rec.t});
        }
      }
      if (shard.rec.health != prev_health) {
        events.log(obs::EventKind::kHealthTransition, stream.id, shard_index,
                   shard.rec.t, static_cast<std::int64_t>(prev_health),
                   static_cast<std::int64_t>(shard.rec.health),
                   fault::to_string(shard.rec.health).data());
        const bool into_degraded = shard.rec.health == fault::HealthState::kDegraded;
        const bool into_failsafe = shard.rec.health == fault::HealthState::kFailsafe;
        if ((into_degraded || into_failsafe) && recorder != nullptr && !dump_queued(i)) {
          shard.pending_dumps.push_back({i,
                                         into_failsafe ? DumpReason::kHealthFailsafe
                                                       : DumpReason::kHealthDegraded,
                                         shard.rec.t});
        }
      }
      if (shard.rec.residual_quarantined && !prev_quarantined) {
        events.log(obs::EventKind::kQuarantine, stream.id, shard_index, shard.rec.t,
                   static_cast<std::int64_t>(shard.rec.fault), 0,
                   fault::to_string(shard.rec.fault).data());
      }
      prev_alarm = shard.rec.adaptive_alarm;
      prev_health = shard.rec.health;
      prev_quarantined = shard.rec.residual_quarantined;
    }
    soa.deadline[i] = shard.rec.deadline;
    soa.window[i] = shard.rec.window;
    soa.adaptive_alarm[i] = shard.rec.adaptive_alarm ? 1 : 0;
    soa.fixed_alarm[i] = shard.rec.fixed_alarm ? 1 : 0;
    soa.health[i] = static_cast<std::uint8_t>(shard.rec.health);
    soa.quarantined[i] = shard.rec.residual_quarantined ? 1 : 0;
    soa.steps_done[i] += chunk;
    shard.stepped += chunk;
    if (soa.steps_done[i] == soa.steps_total[i]) shard.finished.push_back(i);
  }
}

void StreamEngine::finalize_finished_() {
  ServeObs& ob = ServeObs::get();
  for (Shard& shard : shards_) {
    for (const std::size_t slot : shard.finished) {
      StreamRuntime& stream = *shard.slots[slot];
      StreamResult result;
      result.id = stream.id;
      result.steps = shard.soa.steps_done[slot];
      result.adaptive = stream.metrics.finish(core::Strategy::kAdaptive);
      result.fixed = stream.metrics.finish(core::Strategy::kFixed);
      result.final_health = static_cast<fault::HealthState>(shard.soa.health[slot]);
      result.adaptive_evaluations = stream.system.adaptive_evaluations();
      finished_.emplace(stream.id, std::move(result));
      running_.erase(stream.id);
      shard.slots[slot].reset();
      shard.free_slots.push_back(slot);
      ++streams_finished_;
      ob.finished.inc();
    }
    shard.finished.clear();
  }
}

std::size_t StreamEngine::step_batch_(std::size_t budget) {
  ServeObs& ob = ServeObs::get();
  admit_pending_();
  std::size_t stepped = 0;
  if (!running_.empty()) {
    const obs::ScopedSpan span(ob.step_all, "serve.step_all", "serve");
    if (!pool_) {
      for (Shard& shard : shards_) step_shard_(shard, budget);
    } else {
      pool_->run(shards_.size(),
                 [this, budget](std::size_t i) { step_shard_(shards_[i], budget); });
    }
    for (const Shard& shard : shards_) stepped += shard.stepped;
    // Dumps before finalize: a stream whose trigger landed on its last step
    // must still be in its slot when the driver encodes it.
    perform_pending_dumps_();
    finalize_finished_();
    steps_total_ += stepped;
    ob.steps.inc(stepped);
  }
  ob.running.set(static_cast<std::int64_t>(running_.size()));
  ob.queued.set(static_cast<std::int64_t>(pending_.size()));
  publish_introspection_();
  return stepped;
}

std::size_t StreamEngine::step_all() { return step_batch_(1); }

std::size_t StreamEngine::run_to_completion() {
  // Chunk size trades scheduling granularity (admission of queued streams,
  // shard-batch timer resolution) against cache locality; 64 keeps a
  // 1024-stream engine from thrashing every stream's working set per pass.
  constexpr std::size_t kRunChunk = 64;
  std::size_t total = 0;
  while (true) {
    const std::size_t stepped = step_batch_(kRunChunk);
    if (stepped == 0) break;
    total += stepped;
  }
  return total;
}

core::Result<StreamResult> StreamEngine::drain(StreamId id) {
  if (auto it = finished_.find(id); it != finished_.end()) {
    StreamResult result = std::move(it->second);
    finished_.erase(it);
    last_dump_.erase(id);  // the retained dump dies with the stream
    return result;
  }
  if (running_.count(id) != 0) {
    return core::Status{core::StatusCode::kUnavailable, "stream still running"};
  }
  for (const auto& [pending_id, spec] : pending_) {
    (void)spec;
    if (pending_id == id) {
      return core::Status{core::StatusCode::kUnavailable, "stream still queued"};
    }
  }
  return core::Status{core::StatusCode::kOutOfRange, "unknown stream id"};
}

core::Result<StreamStatus> StreamEngine::status(StreamId id) const {
  StreamStatus st;
  st.id = id;
  if (auto it = running_.find(id); it != running_.end()) {
    const Shard& shard = shards_[it->second.first];
    const std::size_t slot = it->second.second;
    st.state = StreamState::kRunning;
    st.steps_done = shard.soa.steps_done[slot];
    st.steps_total = shard.soa.steps_total[slot];
    st.deadline = shard.soa.deadline[slot];
    st.window = shard.soa.window[slot];
    st.adaptive_alarm = shard.soa.adaptive_alarm[slot] != 0;
    st.fixed_alarm = shard.soa.fixed_alarm[slot] != 0;
    st.health = static_cast<fault::HealthState>(shard.soa.health[slot]);
    return st;
  }
  if (auto it = finished_.find(id); it != finished_.end()) {
    st.state = StreamState::kFinished;
    st.steps_done = it->second.steps;
    st.steps_total = it->second.steps;
    st.health = it->second.final_health;
    return st;
  }
  for (const auto& [pending_id, spec] : pending_) {
    if (pending_id == id) {
      st.state = StreamState::kQueued;
      st.steps_total = spec.steps;
      return st;
    }
  }
  return core::Status{core::StatusCode::kOutOfRange, "unknown stream id"};
}

EngineSnapshot StreamEngine::snapshot() const noexcept {
  EngineSnapshot snap;
  snap.running = running_.size();
  snap.queued = pending_.size();
  snap.finished = finished_.size();
  snap.shards = shards_.size();
  snap.steps_total = steps_total_;
  snap.streams_admitted = streams_admitted_;
  snap.streams_finished = streams_finished_;
  snap.streams_rejected = streams_rejected_;
  return snap;
}

// --- forensics -------------------------------------------------------------

core::Result<std::vector<std::uint8_t>> StreamEngine::encode_slot_dump_(
    const Shard& shard, std::size_t shard_index, std::size_t slot, DumpReason reason,
    std::uint64_t trigger_step) const {
  const StreamRuntime& stream = *shard.slots[slot];
  const obs::FlightRecorder* recorder =
      slot < shard.recorders.size() ? shard.recorders[slot].get() : nullptr;
  if (recorder == nullptr) {
    return core::Status{core::StatusCode::kUnavailable,
                        "flight recording disabled (flight_recorder_depth = 0)"};
  }
  ForensicsDump dump;
  dump.reason = reason;
  dump.stream = stream.id;
  dump.shard = shard_index;
  dump.trigger_step = trigger_step;
  dump.steps_done = shard.soa.steps_done[slot];
  dump.ts_ns = obs::Tracer::now_ns();
  dump.spec = stream.spec;
  recorder->snapshot(dump.frames);
  return encode_dump(dump);
}

void StreamEngine::perform_pending_dumps_() {
  for (std::size_t si = 0; si < shards_.size(); ++si) {
    Shard& shard = shards_[si];
    if (shard.pending_dumps.empty()) continue;
    for (const PendingDump& d : shard.pending_dumps) {
      if (!shard.slots[d.slot]) continue;
      const StreamId id = shard.slots[d.slot]->id;
      core::Result<std::vector<std::uint8_t>> image =
          encode_slot_dump_(shard, si, d.slot, d.reason, d.trigger_step);
      if (!image.is_ok()) continue;
      const auto frames = static_cast<std::int64_t>(shard.recorders[d.slot]->size());
      if (!options_.forensics_dir.empty()) {
        char name[96];
        std::snprintf(name, sizeof name, "/stream_%llu_%s_%llu.awdfr",
                      static_cast<unsigned long long>(id), dump_reason_name(d.reason),
                      static_cast<unsigned long long>(d.trigger_step));
        const core::Status st =
            core::ckpt::write_file(options_.forensics_dir + name, image.value());
        if (!st.is_ok()) {
          std::fprintf(stderr, "serve: forensic dump for stream %llu failed: %s\n",
                       static_cast<unsigned long long>(id),
                       std::string(st.message()).c_str());
        }
      }
      obs::EventLog::global().log(obs::EventKind::kDump, id, si, d.trigger_step,
                                  frames, static_cast<std::int64_t>(d.reason),
                                  dump_reason_name(d.reason));
      last_dump_[id] = std::move(image).value();
      ++dumps_written_;
    }
    shard.pending_dumps.clear();
  }
}

core::Result<std::vector<std::uint8_t>> StreamEngine::dump_stream(
    StreamId id, DumpReason reason) const {
  const auto it = running_.find(id);
  if (it == running_.end()) {
    return core::Status{core::StatusCode::kOutOfRange,
                        "unknown or not-running stream id"};
  }
  const Shard& shard = shards_[it->second.first];
  const std::size_t slot = it->second.second;
  const std::size_t done = shard.soa.steps_done[slot];
  return encode_slot_dump_(shard, it->second.first, slot, reason,
                           done > 0 ? done - 1 : 0);
}

core::Result<std::vector<std::uint8_t>> StreamEngine::last_dump(StreamId id) const {
  const auto it = last_dump_.find(id);
  if (it == last_dump_.end()) {
    return core::Status{core::StatusCode::kOutOfRange,
                        "no retained dump for this stream id"};
  }
  return it->second;
}

std::size_t StreamEngine::dump_all_streams(const std::string& dir,
                                           DumpReason reason) const noexcept {
  std::size_t written = 0;
  try {
    for (std::size_t si = 0; si < shards_.size(); ++si) {
      const Shard& shard = shards_[si];
      for (std::size_t slot = 0; slot < shard.slots.size(); ++slot) {
        if (!shard.slots[slot]) continue;
        const std::size_t done = shard.soa.steps_done[slot];
        core::Result<std::vector<std::uint8_t>> image =
            encode_slot_dump_(shard, si, slot, reason, done > 0 ? done - 1 : 0);
        if (!image.is_ok()) continue;
        const StreamId id = shard.slots[slot]->id;
        char name[96];
        std::snprintf(name, sizeof name, "/stream_%llu_%s.awdfr",
                      static_cast<unsigned long long>(id), dump_reason_name(reason));
        if (core::ckpt::write_file(dir + name, image.value()).is_ok()) {
          ++written;
          obs::EventLog::global().log(
              obs::EventKind::kDump, id, si, done > 0 ? done - 1 : 0,
              static_cast<std::int64_t>(image.value().size()),
              static_cast<std::int64_t>(reason), dump_reason_name(reason));
        }
      }
    }
  } catch (...) {
    // Best effort by contract: the crash path must never throw on the way
    // down.  Whatever was written before the failure stays on disk.
  }
  return written;
}

// --- introspection ---------------------------------------------------------

EngineIntrospection StreamEngine::introspect() const {
  EngineIntrospection intro;
  intro.counters = snapshot();
  intro.recorder_depth = options_.flight_recorder_depth;
  intro.dumps_written = dumps_written_;
  for (const auto& [key, backend] : estimator_cache_) {
    (void)key;
    ++(backend->kind() == reach::BackendKind::kTable ? intro.backends_table
                                                      : intro.backends_box);
  }
  intro.shard_info.reserve(shards_.size());
  for (const Shard& shard : shards_) {
    ShardIntrospection si;
    for (std::size_t i = 0; i < shard.slots.size(); ++i) {
      if (!shard.slots[i]) continue;
      ++si.streams;
      si.steps_done += shard.soa.steps_done[i];
      if (shard.soa.adaptive_alarm[i] != 0) ++si.alarming;
      const auto health = static_cast<fault::HealthState>(shard.soa.health[i]);
      if (health == fault::HealthState::kDegraded) ++si.degraded;
      if (health == fault::HealthState::kFailsafe) ++si.failsafe;
      if (i < shard.recorders.size() && shard.recorders[i]) {
        si.recorder_frames += shard.recorders[i]->size();
      }
    }
    intro.shard_info.push_back(si);
  }
  return intro;
}

void StreamEngine::publish_introspection_() const {
  if (!obs::enabled()) return;
  const EngineIntrospection intro = introspect();
  std::size_t alarming = 0;
  std::size_t degraded = 0;
  std::size_t failsafe = 0;
  std::size_t frames = 0;
  for (const ShardIntrospection& si : intro.shard_info) {
    alarming += si.alarming;
    degraded += si.degraded;
    failsafe += si.failsafe;
    frames += si.recorder_frames;
  }
  ServeObs& ob = ServeObs::get();
  ob.alarming.set(static_cast<std::int64_t>(alarming));
  ob.degraded.set(static_cast<std::int64_t>(degraded));
  ob.failsafe.set(static_cast<std::int64_t>(failsafe));
  ob.recorder_frames.set(static_cast<std::int64_t>(frames));
  ob.dumps_written.set(static_cast<std::int64_t>(dumps_written_));
  ob.backends_box.set(static_cast<std::int64_t>(intro.backends_box));
  ob.backends_table.set(static_cast<std::int64_t>(intro.backends_table));
}

std::string introspection_json(const EngineIntrospection& intro) {
  std::ostringstream out;
  const EngineSnapshot& c = intro.counters;
  out << "{\n"
      << "  \"running\": " << c.running << ",\n"
      << "  \"queued\": " << c.queued << ",\n"
      << "  \"finished\": " << c.finished << ",\n"
      << "  \"shards\": " << c.shards << ",\n"
      << "  \"steps_total\": " << c.steps_total << ",\n"
      << "  \"streams_admitted\": " << c.streams_admitted << ",\n"
      << "  \"streams_finished\": " << c.streams_finished << ",\n"
      << "  \"streams_rejected\": " << c.streams_rejected << ",\n"
      << "  \"recorder_depth\": " << intro.recorder_depth << ",\n"
      << "  \"dumps_written\": " << intro.dumps_written << ",\n"
      << "  \"backends\": {\"box\": " << intro.backends_box
      << ", \"table\": " << intro.backends_table << "},\n"
      << "  \"shard_info\": [";
  for (std::size_t i = 0; i < intro.shard_info.size(); ++i) {
    const ShardIntrospection& si = intro.shard_info[i];
    out << (i == 0 ? "\n" : ",\n")
        << "    {\"streams\": " << si.streams << ", \"steps_done\": " << si.steps_done
        << ", \"alarming\": " << si.alarming << ", \"degraded\": " << si.degraded
        << ", \"failsafe\": " << si.failsafe
        << ", \"recorder_frames\": " << si.recorder_frames << "}";
  }
  if (!intro.shard_info.empty()) out << "\n  ";
  out << "]\n}\n";
  return out.str();
}

}  // namespace awd::serve
