// stream_engine.hpp — batched multi-stream detection serving (DESIGN.md §12).
//
// A fielded monitor rarely watches one loop: a test range, a fleet
// gateway, or a Monte-Carlo campaign runs hundreds of independent
// detection pipelines — heterogeneous plants, attacks and seeds — at
// once.  The StreamEngine multiplexes N DetectionSystems through one
// batched step loop:
//
//   * streams are partitioned statically across shards (one shard per
//     core::ThreadPool worker, round-robin at admission), so which worker
//     steps which stream never depends on timing;
//   * each shard owns an arena — one reused StepRecord whose vectors are
//     written in place by DetectionSystem::step_into — so the steady-state
//     step loop allocates nothing;
//   * deadline estimators are shared per plant family (their query API is
//     const), amortizing the dominant construction cost across streams;
//   * per-stream scoring runs on core::StreamingMetrics (O(1) state), so
//     no trace is ever materialized.
//
// Determinism: streams share no mutable state — each owns its RNG, logger
// and detectors — so every stream's alarms, deadlines and metrics are
// bit-identical to a standalone DetectionSystem run of the same spec,
// regardless of shard count, thread count, admission order, or what else
// is in flight (tests/serve_stream_engine_test.cpp proves this
// record-by-record).
//
// Threading contract: submit/step_all/drain/status are driver-thread APIs
// (externally synchronized); the engine parallelizes internally across its
// pool.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/ckpt.hpp"
#include "core/config.hpp"
#include "core/detection_system.hpp"
#include "core/metrics.hpp"
#include "core/parallel.hpp"
#include "core/status.hpp"
#include "fault/health.hpp"
#include "obs/flight_recorder.hpp"
#include "sim/trace.hpp"

namespace awd::serve {

/// Engine-assigned stream handle (monotonically increasing from 1).
using StreamId = std::uint64_t;

/// Everything one stream runs: a case, an attack, a seed, and per-stream
/// overrides.  Designated initializers make call sites self-describing:
///   engine.submit({.scase = bank.aircraft_pitch(), .attack = kBias, .seed = 7});
struct StreamSpec {
  core::SimulatorCase scase;
  core::AttackKind attack = core::AttackKind::kNone;
  std::uint64_t seed = 0;

  /// Steps to run; 0 means the case's configured length (scase.steps).
  std::size_t steps = 0;

  /// Scoring parameters.  A zero post_attack_guard defaults to
  /// scase.max_window, matching run_cell's guard policy.
  core::MetricsOptions metrics = {};

  /// Per-stream pipeline knobs (fault plan, fixed-window override, ...).
  /// lean_records and per_step_obs are engine-wide serving policy
  /// (StreamEngineOptions) and override these fields;
  /// shared_deadline_estimator is filled from the engine's plant-family
  /// cache when left unset.
  core::DetectionSystemOptions options = {};
};

/// Where a stream is in its lifecycle.
enum class StreamState : std::uint8_t { kQueued, kRunning, kFinished };

/// Why a flight-recorder dump was taken (recorded in the .awdfr meta
/// section; see serve/forensics.hpp for the dump format).
enum class DumpReason : std::uint8_t {
  kManual = 0,       ///< dump_stream() API call
  kAlarm,            ///< adaptive-alarm rising edge
  kHealthDegraded,   ///< health transitioned into DEGRADED
  kHealthFailsafe,   ///< health transitioned into FAILSAFE
  kCrash,            ///< failure-path flush (obs::install_failure_flush)
};

/// Stable external name ("manual", "alarm", ...).
[[nodiscard]] const char* dump_reason_name(DumpReason reason) noexcept;

/// Point-in-time view of one stream (snapshot API).
struct StreamStatus {
  StreamId id = 0;
  StreamState state = StreamState::kQueued;
  std::size_t steps_done = 0;
  std::size_t steps_total = 0;
  // Last completed step's detection outputs (kRunning/kFinished only).
  std::size_t deadline = 0;
  std::size_t window = 0;
  bool adaptive_alarm = false;
  bool fixed_alarm = false;
  fault::HealthState health = fault::HealthState::kNominal;
};

/// Final outcome of one stream, produced when its last step completes.
struct StreamResult {
  StreamId id = 0;
  /// OK for a completed run.  A queued stream that fails deferred
  /// admission (e.g. an estimator wiring error) finishes immediately with
  /// the failure here and zeroed metrics — the engine never unwinds.
  core::Status status;
  std::size_t steps = 0;             ///< steps executed
  core::RunMetrics adaptive;         ///< §6 metrics, adaptive strategy
  core::RunMetrics fixed;            ///< §6 metrics, fixed baseline
  fault::HealthState final_health = fault::HealthState::kNominal;
  std::size_t adaptive_evaluations = 0;  ///< window tests run (overhead metric)
};

/// Engine-level counters (snapshot API).
struct EngineSnapshot {
  std::size_t running = 0;            ///< streams currently stepping
  std::size_t queued = 0;             ///< streams awaiting admission
  std::size_t finished = 0;           ///< results awaiting drain()
  std::size_t shards = 0;
  std::uint64_t steps_total = 0;      ///< stream-steps executed so far
  std::uint64_t streams_admitted = 0;
  std::uint64_t streams_finished = 0;
  std::uint64_t streams_rejected = 0; ///< submissions bounced by backpressure
};

/// Engine sizing and serving-policy knobs.
struct StreamEngineOptions {
  /// Worker threads (== shards): 0 = auto (AWD_THREADS env var, else
  /// hardware concurrency), 1 = serial stepping on the driver thread.
  std::size_t threads = 0;

  /// Admission cap: streams stepping concurrently.  Clamped to >= 1.
  std::size_t max_streams = 1024;

  /// Bounded submission queue: submit() returns kBudgetExceeded once
  /// max_streams are in flight and this many specs are already waiting.
  std::size_t queue_capacity = 1024;

  /// Serve with lean StepRecords (skip record-only prediction/residual
  /// fields; detection outputs are unaffected — see SimulatorOptions).
  bool lean_records = true;

  /// Forward per-step StageClock marks from each pipeline.  Off by
  /// default: the engine records its own per-shard batch timers instead.
  bool per_step_obs = false;

  /// Share one deadline backend (reach::Backend) per plant family across
  /// streams.  The backend's query API is const, so sharing is invisible
  /// to results; disable only to measure its cost.
  bool share_deadline_estimators = true;

  /// Flight-recorder depth: each stream slot keeps its most recent this-many
  /// steps in a fixed ring (obs::FlightRecorder) for forensic dumps; 0
  /// disables recording and with it the automatic dump triggers.  Runtime
  /// observability only — never part of the checkpoint image, and detection
  /// outputs are identical either way.
  std::size_t flight_recorder_depth = 256;

  /// Directory automatic dumps (.awdfr) are written to.  Empty keeps dumps
  /// in memory only — retrievable via last_dump()/dump_stream().  When set,
  /// the engine also registers an obs failure hook that dumps every running
  /// stream's recorder here if the process dies (DumpReason::kCrash).
  std::string forensics_dir{};
};

/// Live introspection of one shard (see StreamEngine::introspect).
struct ShardIntrospection {
  std::size_t streams = 0;          ///< occupied slots
  std::uint64_t steps_done = 0;     ///< sum of stream progress
  std::size_t alarming = 0;         ///< streams whose last step raised the adaptive alarm
  std::size_t degraded = 0;         ///< streams in HealthState::kDegraded
  std::size_t failsafe = 0;         ///< streams in HealthState::kFailsafe
  std::size_t recorder_frames = 0;  ///< flight-recorder frames retained
};

/// Point-in-time engine introspection: the counters plus per-shard stream,
/// alarm/health and recorder-occupancy tallies.  Exported as gauges through
/// the Prometheus/JSON exporters every batch and rendered as JSON by
/// serve::introspection_json for the status surface.
struct EngineIntrospection {
  EngineSnapshot counters;
  std::vector<ShardIntrospection> shard_info;
  std::size_t recorder_depth = 0;    ///< configured ring depth (0 = disabled)
  std::uint64_t dumps_written = 0;   ///< automatic forensic dumps taken
  // Shared deadline backends cached per reach::BackendKind — how the
  // engine's plant families resolved their deadline strategy.
  std::size_t backends_box = 0;       ///< cached box-walk backends
  std::size_t backends_table = 0;     ///< cached precomputed-table backends
};

/// Batched multi-stream serving engine over DetectionSystem pipelines.
class StreamEngine {
 public:
  explicit StreamEngine(StreamEngineOptions options = {});
  ~StreamEngine();

  StreamEngine(const StreamEngine&) = delete;
  StreamEngine& operator=(const StreamEngine&) = delete;

  /// Validate and admit (or queue) a stream.  Returns its StreamId, or
  ///   * kInvalidInput    — the spec fails SimulatorCase::check(), has no
  ///                        steps to run, or its attack onset lies outside
  ///                        the run;
  ///   * kBudgetExceeded  — engine full and the pending queue at capacity
  ///                        (backpressure: step or drain, then resubmit).
  [[nodiscard]] core::Result<StreamId> submit(StreamSpec spec);

  /// Advance every running stream by one control period (admitting queued
  /// streams into freed capacity first).  Returns the number of streams
  /// stepped; 0 means the engine is idle.
  std::size_t step_all();

  /// Step until no stream is running or admittable, scheduling in chunks:
  /// each shard advances a stream several control periods while its state
  /// is cache-hot before moving to the next (streams are independent, so
  /// per-stream results are identical to step_all() driving — only the
  /// interleaving differs).  Returns the total stream-steps executed.
  std::size_t run_to_completion();

  /// Remove a finished stream and return its result, or
  ///   * kUnavailable — the stream is still queued or running;
  ///   * kOutOfRange  — unknown (or already drained) id.
  [[nodiscard]] core::Result<StreamResult> drain(StreamId id);

  /// Point-in-time view of one stream (kOutOfRange on unknown id).
  [[nodiscard]] core::Result<StreamStatus> status(StreamId id) const;

  /// Engine-level counters.
  [[nodiscard]] EngineSnapshot snapshot() const noexcept;

  /// Live introspection: snapshot() plus per-shard stream counts, alarm and
  /// health tallies, and flight-recorder occupancy.  The same tallies are
  /// published as awd_serve_* gauges after every batch, so the Prometheus
  /// and JSON exporters carry them without polling this API.
  [[nodiscard]] EngineIntrospection introspect() const;

  /// Encode a running stream's flight recorder as a .awdfr dump image now.
  ///   * kOutOfRange     — unknown or not-running id;
  ///   * kUnavailable    — recording disabled (flight_recorder_depth 0).
  [[nodiscard]] core::Result<std::vector<std::uint8_t>> dump_stream(
      StreamId id, DumpReason reason = DumpReason::kManual) const;

  /// The most recent automatic dump taken for a stream (kOutOfRange when
  /// none).  Retained until the stream is drained.
  [[nodiscard]] core::Result<std::vector<std::uint8_t>> last_dump(StreamId id) const;

  /// Dump every running stream's recorder into `dir` (best effort — the
  /// crash path; also runs as the engine's obs failure hook when
  /// forensics_dir is set).  Returns the number of dump files written.
  std::size_t dump_all_streams(const std::string& dir,
                               DumpReason reason = DumpReason::kCrash) const noexcept;

  /// Worker count == shard count.
  [[nodiscard]] std::size_t shards() const noexcept;

  /// Serialize the engine's complete mutable state — every running stream's
  /// pipeline (plant, RNG, logger ring, detectors, health, fault injector,
  /// metrics accumulators), the pending queue, undrained results, and the
  /// engine counters — into a versioned snapshot image (core::ckpt,
  /// DESIGN.md §13).  The shard layout is deliberately NOT part of the
  /// snapshot: restore() re-partitions streams across whatever shard count
  /// the restoring engine runs, and every stream continues bit-identically
  /// (streams share no mutable state).
  [[nodiscard]] core::Result<std::vector<std::uint8_t>> checkpoint() const;

  /// Rebuild the engine's state from a snapshot produced by checkpoint().
  /// The engine must be empty (nothing running, queued or undrained) —
  /// kInvalidInput otherwise.  Corrupted, truncated or version-mismatched
  /// images come back as typed errors (kDataLoss / kUnimplemented) from the
  /// codec's validation.  Restore is atomic: the whole image, fingerprint
  /// included, is decoded and every stream's pipeline built before the
  /// engine changes, so on any error the engine is exactly as it was and
  /// can take another restore.  Engine serving policy (max_streams, queue
  /// capacity, lean_records, per_step_obs, estimator sharing) is adopted
  /// from the snapshot so detection outputs stay bit-identical; the
  /// thread/shard count stays whatever this engine was built with.
  [[nodiscard]] core::Status restore(const std::vector<std::uint8_t>& bytes);

  /// Elastic resharding: tear the worker pool and shards down, rebuild them
  /// `new_shards` wide (0 = auto), and move every live stream, in id order,
  /// into the new layout with its progress and last outputs.  Queued and
  /// finished streams, counters and the estimator cache are untouched.
  /// Every stream resumes exactly where it was; results are bit-identical
  /// to never having resharded.  Always returns OK.
  [[nodiscard]] core::Status rebalance(std::size_t new_shards);

 private:
  /// One admitted stream's cold state: its normalized spec (retained as the
  /// checkpoint/restore source of truth), its pipeline, and its O(1)
  /// scorer.  The per-step hot scalars (progress, last detection outputs)
  /// live in the shard's structure-of-arrays batch instead — the inner step
  /// loop walks those contiguous lanes rather than chasing one heap object
  /// per stream.
  struct StreamRuntime {
    StreamId id;
    StreamSpec spec;
    core::DetectionSystem system;
    core::StreamingMetrics metrics;

    StreamRuntime(StreamId id_, StreamSpec spec_, core::DetectionSystem system_,
                  core::StreamingMetrics metrics_)
        : id(id_),
          spec(std::move(spec_)),
          system(std::move(system_)),
          metrics(std::move(metrics_)) {}
  };

  /// Structure-of-arrays batch of per-stream hot state, indexed by slot in
  /// parallel with Shard::slots.  Progress counters and the last step's
  /// detection outputs are what the batched loop, the snapshot API, and the
  /// checkpoint writer read per stream — contiguous per-field lanes make
  /// those sweeps cache-linear instead of chasing one heap object per
  /// stream.  Entries of freed slots are stale until the slot is reused
  /// (placement rewrites every lane); the SoA is a runtime layout only and
  /// never enters the checkpoint image.
  struct StreamSoa {
    std::vector<std::size_t> steps_total;
    std::vector<std::size_t> steps_done;
    std::vector<std::size_t> deadline;
    std::vector<std::size_t> window;
    std::vector<std::uint8_t> adaptive_alarm;
    std::vector<std::uint8_t> fixed_alarm;
    std::vector<std::uint8_t> health;  ///< fault::HealthState underlying value
    /// Last step's residual-quarantine flag — edge detection for the
    /// kQuarantine event across batch boundaries.  Runtime-only like the
    /// rest of the SoA; deliberately not checkpointed (a restore may log
    /// one spurious rising edge, which observability tolerates).
    std::vector<std::uint8_t> quarantined;

    /// Grow every lane to cover `slot` (new lanes zero-initialized).
    void ensure(std::size_t slot) {
      if (slot < steps_total.size()) return;
      const std::size_t n = slot + 1;
      steps_total.resize(n, 0);
      steps_done.resize(n, 0);
      deadline.resize(n, 0);
      window.resize(n, 0);
      adaptive_alarm.resize(n, 0);
      fixed_alarm.resize(n, 0);
      health.resize(n, 0);
      quarantined.resize(n, 0);
    }
  };

  /// A dump trigger observed by a shard worker mid-batch.  File and event
  /// I/O stay off the workers: triggers are queued here and performed on
  /// the driver thread after the pool joins (perform_pending_dumps_).
  struct PendingDump {
    std::size_t slot = 0;
    DumpReason reason = DumpReason::kAlarm;
    std::uint64_t trigger_step = 0;
  };

  /// One worker's partition.  The shard's StepRecord is the arena every one
  /// of its streams steps into: DetectionSystem::step_into overwrites all
  /// fields in place, so after the first lap over the shard the record's
  /// vectors hold the maximum dimension seen and the loop stops allocating.
  struct Shard {
    std::vector<std::unique_ptr<StreamRuntime>> slots;  ///< nullptr = free
    StreamSoa soa;                      ///< hot per-stream state, slot-parallel
    /// Slot-parallel flight recorders (null when recording is disabled).
    /// Reused across occupants — place_runtime_ clears the ring.
    std::vector<std::unique_ptr<obs::FlightRecorder>> recorders;
    std::vector<std::size_t> free_slots;
    std::vector<std::size_t> finished;  ///< slots that completed this batch
    std::vector<PendingDump> pending_dumps;  ///< triggers awaiting the driver
    sim::StepRecord rec;                ///< reused step arena
    std::size_t stepped = 0;            ///< stream-steps executed this batch
  };

  /// The per-stream SoA lanes a checkpoint carries and a placement seeds
  /// (steps_total comes from the spec; the quarantine flag is runtime-only
  /// and always starts clear).  The defaults are a fresh stream's.
  struct StreamLanes {
    std::size_t steps_done = 0;
    std::size_t deadline = 0;
    std::size_t window = 0;
    std::uint8_t adaptive_alarm = 0;
    std::uint8_t fixed_alarm = 0;
    std::uint8_t health = static_cast<std::uint8_t>(fault::HealthState::kNominal);
  };

  /// Plant-family fingerprint → shared deadline backend.
  using EstimatorCache =
      std::unordered_map<std::string, std::shared_ptr<const reach::Backend>>;

  /// Cache key for deadline-backend sharing: the case key plus the hex
  /// reach::spec_fingerprint of the case's derived BackendSpec — everything
  /// backend construction reads (model, input range, eps, safe set, deadline
  /// knobs, backend kind and grid shape).  Streams whose cases agree (same
  /// plant family) get the same instance; create() re-verifies the
  /// fingerprint on every reuse.
  [[nodiscard]] static std::string family_fingerprint(
      const core::SimulatorCase& scase, const core::DetectionSystemOptions& options);

  /// Build a spec's pipeline under serving policy `policy`: the policy's
  /// lean_records/per_step_obs applied, and (when it shares estimators and
  /// the spec brings none) the family's deadline backend taken from
  /// `cache`, or published to it by the first stream of the family.
  /// Admission passes the engine's own policy and cache; restore passes the
  /// snapshot's policy and a scratch cache it commits only on success.
  [[nodiscard]] static core::Result<core::DetectionSystem> build_system_(
      const StreamEngineOptions& policy, EstimatorCache& cache, const StreamSpec& spec);

  void admit_pending_();
  core::Status admit_(StreamId id, StreamSpec&& spec);
  /// Round-robin a runtime into the next shard's free slot, seed its SoA
  /// lanes from `lanes`, give it a clear flight recorder, and index it in
  /// running_ — shared by admission, restore and rebalance (the latter two
  /// must not touch the admission counters).
  void place_runtime_(std::unique_ptr<StreamRuntime> runtime, const StreamLanes& lanes);
  std::size_t step_batch_(std::size_t budget);
  void step_shard_(Shard& shard, std::size_t budget);
  void finalize_finished_();
  /// Driver-thread half of the dump pipeline: encode each queued trigger,
  /// retain it as the stream's last dump, write the .awdfr file when
  /// forensics_dir is set, and log the dump event.
  void perform_pending_dumps_();
  /// Publish the introspection tallies as awd_serve_* gauges.
  void publish_introspection_() const;
  /// Encode one slot's recorder as a dump image (shared by the automatic,
  /// manual and crash paths).
  [[nodiscard]] core::Result<std::vector<std::uint8_t>> encode_slot_dump_(
      const Shard& shard, std::size_t shard_index, std::size_t slot,
      DumpReason reason, std::uint64_t trigger_step) const;

  StreamEngineOptions options_;
  std::unique_ptr<core::ThreadPool> pool_;
  std::vector<Shard> shards_;
  std::deque<std::pair<StreamId, StreamSpec>> pending_;
  std::unordered_map<StreamId, std::pair<std::size_t, std::size_t>>
      running_;  ///< id → (shard, slot)
  std::unordered_map<StreamId, StreamResult> finished_;
  EstimatorCache estimator_cache_;
  StreamId next_id_ = 1;
  std::size_t next_shard_ = 0;  ///< round-robin admission cursor
  std::uint64_t steps_total_ = 0;
  std::uint64_t streams_admitted_ = 0;
  std::uint64_t streams_finished_ = 0;
  std::uint64_t streams_rejected_ = 0;
  std::unordered_map<StreamId, std::vector<std::uint8_t>>
      last_dump_;  ///< latest automatic dump per stream (dropped at drain)
  std::uint64_t dumps_written_ = 0;
  std::uint64_t failure_hook_token_ = 0;  ///< 0 = no crash hook registered
};

/// Render an introspection snapshot as a JSON object — the status document
/// a network daemon would serve.
[[nodiscard]] std::string introspection_json(const EngineIntrospection& intro);

}  // namespace awd::serve
