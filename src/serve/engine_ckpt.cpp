// engine_ckpt.cpp — StreamEngine checkpoint/restore/rebalance and snapshot
// inspection (layout documented in engine_ckpt.hpp).

#include "serve/engine_ckpt.hpp"

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/ckpt.hpp"
#include "core/ckpt_io.hpp"
#include "obs/event_log.hpp"

namespace awd::serve {

namespace ckpt = core::ckpt;

namespace {

/// Serving-policy option bytes: part of the engine-meta section and the
/// leading range of the fingerprint input.  threads is deliberately absent —
/// the shard layout is what restore is allowed to change.
void write_policy(ckpt::Writer& w, const StreamEngineOptions& o) {
  w.u64(o.max_streams);
  w.u64(o.queue_capacity);
  w.b(o.lean_records);
  w.b(o.per_step_obs);
  w.b(o.share_deadline_estimators);
}

bool read_policy(ckpt::Reader& r, StreamEngineOptions& o) {
  std::uint64_t max_streams = 0;
  std::uint64_t queue_capacity = 0;
  if (!r.u64(max_streams) || !r.u64(queue_capacity) || !r.b(o.lean_records) ||
      !r.b(o.per_step_obs) || !r.b(o.share_deadline_estimators)) {
    return false;
  }
  o.max_streams = static_cast<std::size_t>(max_streams);
  o.queue_capacity = static_cast<std::size_t>(queue_capacity);
  return true;
}

void write_run_metrics(ckpt::Writer& w, const core::RunMetrics& m) {
  w.f64(m.fp_rate);
  w.opt_u64(m.first_alarm_after_onset);
  w.opt_u64(m.detection_delay);
  w.u64(m.deadline_at_onset);
  w.b(m.fp_experiment);
  w.b(m.deadline_miss);
  w.b(m.false_negative);
  w.opt_u64(m.first_unsafe);
}

bool read_run_metrics(ckpt::Reader& r, core::RunMetrics& m) {
  std::uint64_t deadline_at_onset = 0;
  if (!r.f64(m.fp_rate) || !r.opt_u64(m.first_alarm_after_onset) ||
      !r.opt_u64(m.detection_delay) || !r.u64(deadline_at_onset) ||
      !r.b(m.fp_experiment) || !r.b(m.deadline_miss) || !r.b(m.false_negative) ||
      !r.opt_u64(m.first_unsafe)) {
    return false;
  }
  m.deadline_at_onset = static_cast<std::size_t>(deadline_at_onset);
  return true;
}

bool read_health_state(ckpt::Reader& r, fault::HealthState& h) {
  std::uint8_t v = 0;
  if (!r.u8(v)) return false;
  if (v > static_cast<std::uint8_t>(fault::HealthState::kFailsafe)) {
    r.fail();
    return false;
  }
  h = static_cast<fault::HealthState>(v);
  return true;
}

bool read_status_code(ckpt::Reader& r, core::StatusCode& code) {
  std::uint8_t v = 0;
  if (!r.u8(v)) return false;
  if (v > static_cast<std::uint8_t>(core::StatusCode::kUnimplemented)) {
    r.fail();
    return false;
  }
  code = static_cast<core::StatusCode>(v);
  return true;
}

/// Meta-section fields in read order.
struct EngineMeta {
  std::uint64_t next_id = 0;
  std::uint64_t steps_total = 0;
  std::uint64_t streams_admitted = 0;
  std::uint64_t streams_finished = 0;
  std::uint64_t streams_rejected = 0;
  StreamEngineOptions policy;
};

bool read_meta(ckpt::Reader& r, EngineMeta& m) {
  return r.u64(m.next_id) && r.u64(m.steps_total) && r.u64(m.streams_admitted) &&
         r.u64(m.streams_finished) && r.u64(m.streams_rejected) &&
         read_policy(r, m.policy);
}

constexpr core::Status kTrailing{core::StatusCode::kDataLoss,
                                 "snapshot section has trailing bytes"};

bool read_stream_result(ckpt::Reader& r, StreamResult& res) {
  std::uint64_t id = 0;
  std::uint64_t steps = 0;
  std::uint64_t evaluations = 0;
  core::StatusCode code = core::StatusCode::kOk;
  if (!r.u64(id) || !read_status_code(r, code) || !r.u64(steps) ||
      !read_run_metrics(r, res.adaptive) || !read_run_metrics(r, res.fixed) ||
      !read_health_state(r, res.final_health) || !r.u64(evaluations)) {
    return false;
  }
  res.id = id;
  res.steps = static_cast<std::size_t>(steps);
  res.adaptive_evaluations = static_cast<std::size_t>(evaluations);
  // Messages are static literals; the original cannot survive a round-trip,
  // so non-OK results carry a generic marker.
  res.status = code == core::StatusCode::kOk
                   ? core::Status::ok()
                   : core::Status{code, "failure recorded before checkpoint"};
  return true;
}

/// A stream section: its decoded spec and the still-unread state block.
struct SnapshotStream {
  std::uint64_t id = 0;
  std::uint64_t steps_done = 0;
  StreamSpec spec;
  ckpt::Reader state{nullptr, 0};
};

/// What walk_snapshot hands its caller.  `meta` runs once, before any other
/// section; the rest run per entry in image order.  A non-OK status from
/// `stream` ends the walk with that status.
struct SnapshotVisitor {
  std::function<void(const ckpt::SnapshotView&, const EngineMeta&)> meta;
  std::function<core::Status(SnapshotStream&)> stream;
  std::function<void(std::uint64_t id, StreamSpec&& spec)> pending;
  std::function<void(StreamResult&& result)> finished;
};

/// The one decoder of an engine snapshot, shared by restore and
/// describe_snapshot: framing, the meta section (read over `meta`, so fields
/// the image does not carry keep their values), every stream, pending and
/// finished entry, and last the fingerprint over the policy bytes and each
/// spec's canonical re-encoding.
core::Status walk_snapshot(const std::vector<std::uint8_t>& bytes, EngineMeta meta,
                           const SnapshotVisitor& visit) {
  core::Result<ckpt::SnapshotView> parsed = ckpt::SnapshotView::parse(bytes);
  if (!parsed.is_ok()) return parsed.status();
  const ckpt::SnapshotView view = std::move(parsed).value();

  const ckpt::SectionView* meta_section = view.find(kSectionEngineMeta);
  if (meta_section == nullptr) {
    return core::Status{core::StatusCode::kDataLoss,
                        "snapshot missing the engine meta section"};
  }
  ckpt::Reader meta_reader = meta_section->reader();
  if (!read_meta(meta_reader, meta)) return meta_reader.status();
  if (!meta_reader.at_end()) return kTrailing;
  visit.meta(view, meta);

  ckpt::Writer fp;
  write_policy(fp, meta.policy);
  const auto read_spec = [&fp](ckpt::Reader& r, StreamSpec& spec) {
    if (!read_stream_spec(r, spec)) return r.status();
    if (!r.at_end()) return kTrailing;
    ckpt::Writer spec_w;  // canonical re-encoding for the fingerprint
    write_stream_spec(spec_w, spec);
    fp.bytes(spec_w.data().data(), spec_w.size());
    return core::Status::ok();
  };

  for (const ckpt::SectionView& section : view.sections()) {
    ckpt::Reader r = section.reader();
    switch (section.id) {
      case kSectionEngineMeta:
        break;  // read above
      case kSectionStream: {
        SnapshotStream stream;
        ckpt::Reader spec_reader(nullptr, 0);
        if (!r.u64(stream.id) || !r.u64(stream.steps_done) || !r.block(spec_reader) ||
            !r.block(stream.state)) {
          return r.status();
        }
        if (!r.at_end()) return kTrailing;
        if (core::Status s = read_spec(spec_reader, stream.spec); !s.is_ok()) return s;
        if (core::Status s = visit.stream(stream); !s.is_ok()) return s;
        break;
      }
      case kSectionPending: {
        std::uint64_t count = 0;
        if (!r.u64(count)) return r.status();
        for (std::uint64_t i = 0; i < count; ++i) {
          std::uint64_t id = 0;
          ckpt::Reader spec_reader(nullptr, 0);
          if (!r.u64(id) || !r.block(spec_reader)) return r.status();
          StreamSpec spec;
          if (core::Status s = read_spec(spec_reader, spec); !s.is_ok()) return s;
          visit.pending(id, std::move(spec));
        }
        if (!r.at_end()) return kTrailing;
        break;
      }
      case kSectionFinished: {
        std::uint64_t count = 0;
        if (!r.u64(count)) return r.status();
        for (std::uint64_t i = 0; i < count; ++i) {
          StreamResult res;
          if (!read_stream_result(r, res)) return r.status();
          visit.finished(std::move(res));
        }
        if (!r.at_end()) return kTrailing;
        break;
      }
      default:
        return core::Status{core::StatusCode::kUnimplemented,
                            "snapshot contains an unknown section"};
    }
  }

  if (ckpt::fnv1a64(fp.data().data(), fp.size()) != view.fingerprint()) {
    return core::Status{core::StatusCode::kDataLoss, "snapshot fingerprint mismatch"};
  }
  return core::Status::ok();
}

}  // namespace

void write_stream_spec(ckpt::Writer& w, const StreamSpec& spec) {
  ckpt::write_case(w, spec.scase);
  ckpt::write_attack_kind(w, spec.attack);
  w.u64(spec.seed);
  w.u64(spec.steps);
  ckpt::write_metrics_options(w, spec.metrics);
  ckpt::write_system_options(w, spec.options);
}

bool read_stream_spec(ckpt::Reader& r, StreamSpec& spec) {
  std::uint64_t seed = 0;
  std::uint64_t steps = 0;
  if (!ckpt::read_case(r, spec.scase) || !ckpt::read_attack_kind(r, spec.attack) ||
      !r.u64(seed) || !r.u64(steps) || !ckpt::read_metrics_options(r, spec.metrics) ||
      !ckpt::read_system_options(r, spec.options)) {
    return false;
  }
  spec.seed = seed;
  spec.steps = static_cast<std::size_t>(steps);
  return true;
}

// --- checkpoint ------------------------------------------------------------

core::Result<std::vector<std::uint8_t>> StreamEngine::checkpoint() const {
  std::vector<StreamId> running_ids;
  running_ids.reserve(running_.size());
  for (const auto& [id, loc] : running_) {
    (void)loc;
    running_ids.push_back(id);
  }
  std::sort(running_ids.begin(), running_ids.end());

  ckpt::SnapshotBuilder builder;
  ckpt::Writer fp;  // fingerprint input: policy bytes, then every spec block
  write_policy(fp, options_);

  ckpt::Writer& meta = builder.section(kSectionEngineMeta);
  meta.u64(next_id_);
  meta.u64(steps_total_);
  meta.u64(streams_admitted_);
  meta.u64(streams_finished_);
  meta.u64(streams_rejected_);
  write_policy(meta, options_);

  for (const StreamId id : running_ids) {
    const auto& loc = running_.at(id);
    const Shard& shard = shards_[loc.first];
    const std::size_t slot = loc.second;
    const StreamRuntime& rt = *shard.slots[slot];
    ckpt::Writer& s = builder.section(kSectionStream);
    s.u64(rt.id);
    s.u64(shard.soa.steps_done[slot]);
    ckpt::Writer spec_w;
    write_stream_spec(spec_w, rt.spec);
    fp.bytes(spec_w.data().data(), spec_w.size());
    s.block(spec_w.data());
    ckpt::Writer state;
    rt.system.serialize(state);
    rt.metrics.serialize(state);
    // The SoA is a runtime layout only: the stream section serializes the
    // same scalar sequence as ever, so images are byte-identical to the
    // pre-SoA encoding.
    state.u64(shard.soa.deadline[slot]);
    state.u64(shard.soa.window[slot]);
    state.b(shard.soa.adaptive_alarm[slot] != 0);
    state.b(shard.soa.fixed_alarm[slot] != 0);
    state.u8(shard.soa.health[slot]);
    s.block(state.data());
  }

  if (!pending_.empty()) {
    ckpt::Writer& p = builder.section(kSectionPending);
    p.u64(pending_.size());
    for (const auto& [id, spec] : pending_) {
      p.u64(id);
      ckpt::Writer spec_w;
      write_stream_spec(spec_w, spec);
      fp.bytes(spec_w.data().data(), spec_w.size());
      p.block(spec_w.data());
    }
  }

  if (!finished_.empty()) {
    std::vector<StreamId> finished_ids;
    finished_ids.reserve(finished_.size());
    for (const auto& [id, res] : finished_) {
      (void)res;
      finished_ids.push_back(id);
    }
    std::sort(finished_ids.begin(), finished_ids.end());
    ckpt::Writer& f = builder.section(kSectionFinished);
    f.u64(finished_ids.size());
    for (const StreamId id : finished_ids) {
      const StreamResult& res = finished_.at(id);
      f.u64(res.id);
      f.u8(static_cast<std::uint8_t>(res.status.code()));
      f.u64(res.steps);
      write_run_metrics(f, res.adaptive);
      write_run_metrics(f, res.fixed);
      f.u8(static_cast<std::uint8_t>(res.final_health));
      f.u64(res.adaptive_evaluations);
    }
  }

  std::vector<std::uint8_t> image = builder.finish(ckpt::fnv1a64(fp.data().data(), fp.size()));
  obs::EventLog::global().log(obs::EventKind::kCheckpoint, 0, 0, 0,
                              static_cast<std::int64_t>(image.size()),
                              static_cast<std::int64_t>(running_ids.size()));
  return image;
}

// --- restore ---------------------------------------------------------------

core::Status StreamEngine::restore(const std::vector<std::uint8_t>& bytes) {
  if (!running_.empty() || !pending_.empty() || !finished_.empty()) {
    return core::Status{core::StatusCode::kInvalidInput,
                        "restore requires an empty engine (drain or use a fresh one)"};
  }

  // Everything is decoded and built into locals; the engine is touched only
  // once the whole image, fingerprint included, has checked out.
  EngineMeta meta;
  meta.policy = options_;  // threads survives; policy fields are overwritten
  EstimatorCache cache = estimator_cache_;
  std::vector<std::pair<std::unique_ptr<StreamRuntime>, StreamLanes>> streams;
  std::deque<std::pair<StreamId, StreamSpec>> pending;
  std::unordered_map<StreamId, StreamResult> finished;
  const core::Status walked = walk_snapshot(bytes, meta, {
      .meta = [&](const ckpt::SnapshotView&, const EngineMeta& read) { meta = read; },
      .stream =
          [&](SnapshotStream& stream) {
            StreamSpec& spec = stream.spec;
            ckpt::Reader& state = stream.state;
            if (core::Status s = spec.scase.check(); !s.is_ok()) return s;
            // The snapshot's serving policy, not this engine's: the
            // per-stream options must match what the checkpointing engine
            // ran with, or detection outputs diverge.
            core::Result<core::DetectionSystem> created =
                build_system_(meta.policy, cache, spec);
            if (!created.is_ok()) return created.status();
            core::DetectionSystem system = std::move(created).value();
            if (core::Status s = system.deserialize(state); !s.is_ok()) return s;
            core::StreamingMetrics metrics(spec.scase.attack_start,
                                           spec.scase.attack_duration, spec.metrics);
            if (core::Status s = metrics.deserialize(state); !s.is_ok()) return s;

            std::uint64_t deadline = 0;
            std::uint64_t window = 0;
            bool adaptive_alarm = false;
            bool fixed_alarm = false;
            fault::HealthState health = fault::HealthState::kNominal;
            if (!state.u64(deadline) || !state.u64(window) || !state.b(adaptive_alarm) ||
                !state.b(fixed_alarm) || !read_health_state(state, health)) {
              return state.status();
            }
            if (!state.at_end()) return kTrailing;
            if (stream.steps_done > spec.steps) {
              return core::Status{core::StatusCode::kDataLoss,
                                  "snapshot stream progress exceeds its run length"};
            }

            const StreamLanes lanes{
                .steps_done = static_cast<std::size_t>(stream.steps_done),
                .deadline = static_cast<std::size_t>(deadline),
                .window = static_cast<std::size_t>(window),
                .adaptive_alarm = adaptive_alarm,
                .fixed_alarm = fixed_alarm,
                .health = static_cast<std::uint8_t>(health)};
            streams.emplace_back(
                std::make_unique<StreamRuntime>(stream.id, std::move(spec),
                                                std::move(system), std::move(metrics)),
                lanes);
            return core::Status::ok();
          },
      .pending =
          [&](std::uint64_t id, StreamSpec&& spec) {
            pending.emplace_back(id, std::move(spec));
          },
      .finished = [&](StreamResult&& res) { finished.emplace(res.id, std::move(res)); },
  });
  if (!walked.is_ok()) return walked;

  options_ = meta.policy;
  estimator_cache_ = std::move(cache);
  next_shard_ = 0;
  for (auto& [runtime, lanes] : streams) place_runtime_(std::move(runtime), lanes);
  pending_ = std::move(pending);
  finished_ = std::move(finished);
  next_id_ = meta.next_id;
  steps_total_ = meta.steps_total;
  streams_admitted_ = meta.streams_admitted;
  streams_finished_ = meta.streams_finished;
  streams_rejected_ = meta.streams_rejected;
  obs::EventLog::global().log(obs::EventKind::kRestore, 0, 0, 0,
                              static_cast<std::int64_t>(bytes.size()),
                              static_cast<std::int64_t>(running_.size()));
  return core::Status::ok();
}

// --- rebalance -------------------------------------------------------------

core::Status StreamEngine::rebalance(std::size_t new_shards) {
  // Lift every live runtime out with the lanes a checkpoint would carry,
  // then place them in id order — the order restore places an image's
  // streams in, so the new layout is the one a checkpoint round trip built.
  std::vector<std::pair<std::unique_ptr<StreamRuntime>, StreamLanes>> live;
  live.reserve(running_.size());
  for (Shard& shard : shards_) {
    const StreamSoa& soa = shard.soa;
    for (std::size_t slot = 0; slot < shard.slots.size(); ++slot) {
      if (!shard.slots[slot]) continue;
      live.emplace_back(std::move(shard.slots[slot]),
                        StreamLanes{.steps_done = soa.steps_done[slot],
                                    .deadline = soa.deadline[slot],
                                    .window = soa.window[slot],
                                    .adaptive_alarm = soa.adaptive_alarm[slot],
                                    .fixed_alarm = soa.fixed_alarm[slot],
                                    .health = soa.health[slot]});
    }
  }
  std::sort(live.begin(), live.end(),
            [](const auto& a, const auto& b) { return a.first->id < b.first->id; });

  running_.clear();
  shards_.clear();
  pool_.reset();
  options_.threads = new_shards;
  const std::size_t threads = core::resolve_threads(new_shards);
  if (threads > 1) pool_ = std::make_unique<core::ThreadPool>(threads);
  shards_.resize(threads);
  next_shard_ = 0;
  for (auto& [runtime, lanes] : live) place_runtime_(std::move(runtime), lanes);
  return core::Status::ok();
}

// --- inspection ------------------------------------------------------------

core::Result<SnapshotInfo> describe_snapshot(const std::vector<std::uint8_t>& bytes) {
  SnapshotInfo info;
  const auto stream_info = [](std::uint64_t id, const StreamSpec& spec,
                              std::uint64_t steps_done) {
    return SnapshotStreamInfo{id,         spec.scase.key, spec.attack, spec.seed,
                              spec.steps, static_cast<std::size_t>(steps_done)};
  };
  const core::Status walked = walk_snapshot(bytes, EngineMeta{}, {
      .meta =
          [&](const ckpt::SnapshotView& view, const EngineMeta& meta) {
            info.version = view.version();
            info.fingerprint = view.fingerprint();
            info.bytes = bytes.size();
            info.sections = view.sections().size();
            info.next_id = meta.next_id;
            info.steps_total = meta.steps_total;
            info.streams_admitted = meta.streams_admitted;
            info.streams_finished = meta.streams_finished;
            info.streams_rejected = meta.streams_rejected;
            info.max_streams = meta.policy.max_streams;
            info.queue_capacity = meta.policy.queue_capacity;
            info.lean_records = meta.policy.lean_records;
            info.per_step_obs = meta.policy.per_step_obs;
            info.share_deadline_estimators = meta.policy.share_deadline_estimators;
          },
      .stream =
          [&](SnapshotStream& stream) {
            info.running.push_back(stream_info(stream.id, stream.spec, stream.steps_done));
            return core::Status::ok();
          },
      .pending =
          [&](std::uint64_t id, StreamSpec&& spec) {
            info.pending.push_back(stream_info(id, spec, 0));
          },
      .finished = [&](StreamResult&&) { ++info.finished; },
  });
  if (!walked.is_ok()) return walked;
  return info;
}

}  // namespace awd::serve
