// engine_ckpt.hpp — StreamEngine snapshot layout and inspection.
//
// The engine's checkpoint()/restore() methods live on StreamEngine; this
// header carries what external tooling needs to reason about a snapshot
// image *without* reconstructing any pipeline: the section-id vocabulary
// of the v1 layout and describe_snapshot(), which parses an image down to
// a structural summary (stream ids, case keys, progress, engine counters).
// `awd ckpt` renders that summary as text or JSON.
//
// v1 layout (core::ckpt framing, DESIGN.md §13):
//   section 1  engine meta — counters + serving-policy options
//   section 2  one per running stream — id, steps_done, spec block,
//              state block (pipeline + metrics + status scalars)
//   section 3  the pending queue — (id, spec block) in queue order
//   section 4  undrained results — final metrics per finished stream
// The header fingerprint is fnv1a64 over the serving-policy options and
// every spec block (running streams in ascending-id order, then the
// queue), so a snapshot can never be restored against different streams.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/status.hpp"
#include "serve/stream_engine.hpp"

namespace awd::serve {

inline constexpr std::uint32_t kSectionEngineMeta = 1;
inline constexpr std::uint32_t kSectionStream = 2;
inline constexpr std::uint32_t kSectionPending = 3;
inline constexpr std::uint32_t kSectionFinished = 4;

/// Spec-block codec — (case, attack, seed, steps, metrics options, system
/// options) — shared by the engine snapshot sections above and the .awdfr
/// forensic dump (serve/forensics.hpp), so a dump's spec decodes with the
/// exact bytes the checkpoint fingerprint hashes.
void write_stream_spec(core::ckpt::Writer& w, const StreamSpec& spec);
[[nodiscard]] bool read_stream_spec(core::ckpt::Reader& r, StreamSpec& spec);

/// One stream as a snapshot records it (no pipeline reconstruction).
struct SnapshotStreamInfo {
  StreamId id = 0;
  std::string case_key;
  core::AttackKind attack = core::AttackKind::kNone;
  std::uint64_t seed = 0;
  std::size_t steps_total = 0;
  std::size_t steps_done = 0;
};

/// Structural summary of a snapshot image.
struct SnapshotInfo {
  std::uint32_t version = 0;
  std::uint64_t fingerprint = 0;
  std::size_t bytes = 0;
  std::size_t sections = 0;

  // Engine meta.
  std::uint64_t next_id = 0;
  std::uint64_t steps_total = 0;
  std::uint64_t streams_admitted = 0;
  std::uint64_t streams_finished = 0;
  std::uint64_t streams_rejected = 0;
  std::size_t max_streams = 0;
  std::size_t queue_capacity = 0;
  bool lean_records = false;
  bool per_step_obs = false;
  bool share_deadline_estimators = false;

  std::vector<SnapshotStreamInfo> running;
  std::vector<SnapshotStreamInfo> pending;
  std::size_t finished = 0;  ///< undrained results in the image
};

/// Parse and summarize a snapshot image.  Walks it with the same decoder as
/// StreamEngine::restore (magic, version, CRCs, section structure, every
/// spec and finished result, fingerprint), so it rejects exactly the images
/// restore rejects before rebuilding a stream, but reconstructs no pipeline
/// state — reading a snapshot from an untrusted disk must be safe and cheap.
[[nodiscard]] core::Result<SnapshotInfo> describe_snapshot(
    const std::vector<std::uint8_t>& bytes);

}  // namespace awd::serve
