// forensics.cpp — .awdfr dump encode/decode and deterministic replay
// (format documented in forensics.hpp).

#include "serve/forensics.hpp"

#include <cstdio>
#include <utility>

#include "core/ckpt.hpp"
#include "core/ckpt_io.hpp"
#include "serve/engine_ckpt.hpp"

namespace awd::serve {

namespace ckpt = core::ckpt;

namespace {

constexpr core::Status kTrailing{core::StatusCode::kDataLoss,
                                 "forensics section has trailing bytes"};

}  // namespace

const char* dump_reason_name(DumpReason reason) noexcept {
  switch (reason) {
    case DumpReason::kManual:
      return "manual";
    case DumpReason::kAlarm:
      return "alarm";
    case DumpReason::kHealthDegraded:
      return "health_degraded";
    case DumpReason::kHealthFailsafe:
      return "health_failsafe";
    case DumpReason::kCrash:
      return "crash";
  }
  return "unknown";
}

SpecBlock encode_spec_block(const StreamSpec& spec) {
  ckpt::Writer w;
  write_stream_spec(w, spec);
  SpecBlock block;
  block.fingerprint = ckpt::fnv1a64(w.data().data(), w.size());
  block.bytes = w.take();
  return block;
}

void encode_dump_into(std::vector<std::uint8_t>& image, const DumpMeta& meta,
                      const SpecBlock& spec, const std::vector<obs::FlightFrame>& frames) {
  // Meta: format version, reason, then five u64 fields.
  constexpr std::size_t kMetaBytes = 4 + 1 + 5 * 8;
  const std::size_t frames_bytes = 8 + frames.size() * ckpt::kFlightFrameBytes;
  ckpt::SnapshotBuilder builder(ckpt::kHeaderSize + 3 * ckpt::kSectionHeaderSize +
                                    kMetaBytes + spec.bytes.size() + frames_bytes,
                                std::move(image));

  ckpt::Writer& meta_w = builder.section(kForensicsSectionMeta);
  meta_w.u32(kForensicsFormatVersion);
  meta_w.u8(static_cast<std::uint8_t>(meta.reason));
  meta_w.u64(meta.stream);
  meta_w.u64(meta.shard);
  meta_w.u64(meta.trigger_step);
  meta_w.u64(meta.steps_done);
  meta_w.u64(meta.ts_ns);

  builder.section(kForensicsSectionSpec).bytes(spec.bytes.data(), spec.bytes.size());

  ckpt::Writer& frames_w = builder.section(kForensicsSectionFrames);
  frames_w.u64(frames.size());
  ckpt::write_flight_frames(frames_w, frames);

  image = builder.finish(spec.fingerprint);
}

std::vector<std::uint8_t> encode_dump(const ForensicsDump& dump) {
  std::vector<std::uint8_t> image;
  encode_dump_into(image, dump, encode_spec_block(dump.spec), dump.frames);
  return image;
}

core::Result<ForensicsDump> decode_dump(const std::vector<std::uint8_t>& bytes) {
  core::Result<ckpt::SnapshotView> parsed = ckpt::SnapshotView::parse(bytes);
  if (!parsed.is_ok()) return parsed.status();
  const ckpt::SnapshotView view = std::move(parsed).value();

  const ckpt::SectionView* meta_section = view.find(kForensicsSectionMeta);
  const ckpt::SectionView* spec_section = view.find(kForensicsSectionSpec);
  const ckpt::SectionView* frames_section = view.find(kForensicsSectionFrames);
  if (meta_section == nullptr || spec_section == nullptr || frames_section == nullptr) {
    return core::Status{core::StatusCode::kDataLoss,
                        "forensics dump is missing a required section"};
  }

  ForensicsDump dump;
  {
    ckpt::Reader r = meta_section->reader();
    std::uint32_t version = 0;
    std::uint8_t reason = 0;
    if (!r.u32(version)) return r.status();
    if (version != kForensicsFormatVersion) {
      return core::Status{core::StatusCode::kUnimplemented,
                          "forensics dump format version not supported"};
    }
    if (!r.u8(reason) || !r.u64(dump.stream) || !r.u64(dump.shard) ||
        !r.u64(dump.trigger_step) || !r.u64(dump.steps_done) || !r.u64(dump.ts_ns)) {
      return r.status();
    }
    if (!r.at_end()) return kTrailing;
    if (reason > static_cast<std::uint8_t>(DumpReason::kCrash)) {
      return core::Status{core::StatusCode::kDataLoss,
                          "forensics dump carries an unknown dump reason"};
    }
    dump.reason = static_cast<DumpReason>(reason);
  }

  {
    ckpt::Reader r = spec_section->reader();
    if (!read_stream_spec(r, dump.spec)) return r.status();
    if (!r.at_end()) return kTrailing;
    if (core::Status s = dump.spec.scase.check(); !s.is_ok()) return s;
    // The fingerprint pairs the image with its spec bytes, exactly like the
    // engine snapshot: re-encode canonically and compare.
    if (encode_spec_block(dump.spec).fingerprint != view.fingerprint()) {
      return core::Status{core::StatusCode::kDataLoss,
                          "forensics dump fingerprint mismatch"};
    }
  }

  {
    ckpt::Reader r = frames_section->reader();
    std::uint64_t count = 0;
    if (!r.u64(count) || !ckpt::read_flight_frames(r, count, dump.frames)) {
      return r.status();
    }
    if (!r.at_end()) return kTrailing;
  }

  // Structural invariants the replay verifier relies on: the frames are the
  // contiguous tail of the run, and the trigger lies inside the window.
  constexpr core::Status kInconsistent{
      core::StatusCode::kDataLoss,
      "forensics dump frames are inconsistent with its meta section"};
  if (dump.steps_done == 0) {
    if (!dump.frames.empty() || dump.trigger_step != 0) return kInconsistent;
    return dump;
  }
  if (dump.frames.empty()) return kInconsistent;
  for (std::size_t i = 1; i < dump.frames.size(); ++i) {
    if (dump.frames[i].t != dump.frames[i - 1].t + 1) return kInconsistent;
  }
  if (dump.frames.back().t != dump.steps_done - 1) return kInconsistent;
  if (dump.trigger_step < dump.frames.front().t ||
      dump.trigger_step > dump.frames.back().t) {
    return kInconsistent;
  }
  if (dump.steps_done > dump.spec.steps) return kInconsistent;
  return dump;
}

core::Result<ReplayReport> replay_dump(const ForensicsDump& dump) {
  // Rebuild the stream exactly as the engine admitted it.  The dump's spec
  // is post-normalization (steps and guard resolved at submit), and a
  // private deadline estimator is bit-identical to a shared one — estimator
  // construction is a pure function of the case.
  core::DetectionSystemOptions opts = dump.spec.options;
  opts.shared_deadline_estimator = nullptr;
  core::Result<core::DetectionSystem> created = core::DetectionSystem::create(
      dump.spec.scase, dump.spec.attack, dump.spec.seed, std::move(opts));
  if (!created.is_ok()) return created.status();
  core::DetectionSystem system = std::move(created).value();

  ReplayReport report;
  report.mismatch.clear();
  // Manual and crash dumps carry no detector condition to re-fire; the
  // frame comparison is the whole proof for them.
  const bool unconditional =
      dump.reason == DumpReason::kManual || dump.reason == DumpReason::kCrash;
  report.trigger_reproduced = unconditional;

  const std::uint64_t first =
      dump.frames.empty() ? dump.steps_done : dump.frames.front().t;
  std::size_t matched = 0;
  sim::StepRecord rec;
  for (std::uint64_t t = 0; t < dump.steps_done; ++t) {
    system.step_into(rec);
    ++report.steps_replayed;
    if (t == dump.trigger_step) {
      report.trigger_stat = rec.detect_stat;
      switch (dump.reason) {
        case DumpReason::kAlarm:
          report.trigger_reproduced = rec.adaptive_alarm;
          break;
        case DumpReason::kHealthDegraded:
          report.trigger_reproduced = rec.health == fault::HealthState::kDegraded;
          break;
        case DumpReason::kHealthFailsafe:
          report.trigger_reproduced = rec.health == fault::HealthState::kFailsafe;
          break;
        case DumpReason::kManual:
        case DumpReason::kCrash:
          break;
      }
    }
    if (t < first) continue;
    const obs::FlightFrame replayed = obs::make_frame(rec);
    const obs::FlightFrame& captured = dump.frames[static_cast<std::size_t>(t - first)];
    ++report.frames_compared;
    if (obs::frames_bit_identical(replayed, captured)) {
      ++matched;
    } else if (report.mismatch.empty()) {
      char buf[128];
      std::snprintf(buf, sizeof buf,
                    "first mismatch at step %llu (captured stat %.17g, replayed %.17g)",
                    static_cast<unsigned long long>(t), captured.detect_stat,
                    replayed.detect_stat);
      report.mismatch = buf;
    }
  }
  report.frames_identical =
      matched == dump.frames.size() && report.frames_compared == dump.frames.size();
  return report;
}

}  // namespace awd::serve
