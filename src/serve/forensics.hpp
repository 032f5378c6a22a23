// forensics.hpp — .awdfr flight-recorder dump format and deterministic
// alarm replay (DESIGN.md §15).
//
// When a detector fires, an alarm is a boolean; the postmortem question —
// "what did this stream see in the steps before it tripped?" — needs the
// captured context *and* proof that the capture is faithful.  A forensic
// dump answers both: it carries the stream's normalized spec (case,
// attack, seed, options — everything that makes a run reproducible) plus
// the flight recorder's frame window, framed through the core::ckpt codec
// (magic/version/fingerprint/per-section CRC) in its own file kind:
//
//   section 1  meta — dump format version, reason, stream/shard ids,
//              trigger step, stream progress, monotonic timestamp
//   section 2  spec — the engine's spec block (engine_ckpt codec)
//   section 3  frames — frame count + core::ckpt flight-frame records
//
// The header fingerprint is fnv1a64 over the spec bytes, pairing a dump
// with its stream exactly as an engine snapshot pairs with its config.
//
// replay_dump() is the faithfulness proof: it rebuilds a standalone
// DetectionSystem from the spec, re-runs it to the dump's progress point,
// and compares every captured frame *bitwise* against the replayed steps.
// The pipeline is deterministic by construction (seeded RNG, fixed-order
// scalar reductions), so verification demands exact equality — at any
// thread count — and any difference means the dump (or the detector) is
// lying.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/status.hpp"
#include "obs/flight_recorder.hpp"
#include "serve/stream_engine.hpp"

namespace awd::serve {

/// .awdfr section ids (distinct file kind from the engine snapshot; the
/// meta section's leading format version keeps the two from being confused
/// even though both use the AWDCKPT1 framing).
inline constexpr std::uint32_t kForensicsSectionMeta = 1;
inline constexpr std::uint32_t kForensicsSectionSpec = 2;
inline constexpr std::uint32_t kForensicsSectionFrames = 3;

/// Dump format version (bump on layout change; readers reject others).
inline constexpr std::uint32_t kForensicsFormatVersion = 1;

/// One decoded flight-recorder dump.
struct ForensicsDump {
  DumpReason reason = DumpReason::kManual;
  StreamId stream = 0;
  std::uint64_t shard = 0;         ///< shard index at dump time (layout info only)
  std::uint64_t trigger_step = 0;  ///< step that tripped the dump
  std::uint64_t steps_done = 0;    ///< stream progress when dumped
  std::uint64_t ts_ns = 0;         ///< monotonic timestamp at dump
  StreamSpec spec;                 ///< normalized spec — the replay recipe
  std::vector<obs::FlightFrame> frames;  ///< oldest → newest, contiguous steps
};

/// Encode a dump as a .awdfr image.
[[nodiscard]] std::vector<std::uint8_t> encode_dump(const ForensicsDump& dump);

/// Parse and validate a .awdfr image: framing (magic/version/CRC), the
/// meta/spec/frames structure, the spec fingerprint, enum ranges, and frame
/// contiguity (consecutive steps ending at steps_done - 1, trigger inside
/// the captured window).  Corrupt or truncated images come back as typed
/// kDataLoss / kUnimplemented errors.
[[nodiscard]] core::Result<ForensicsDump> decode_dump(
    const std::vector<std::uint8_t>& bytes);

/// What replaying a dump established.
struct ReplayReport {
  std::size_t steps_replayed = 0;     ///< pipeline steps re-run (== steps_done)
  std::size_t frames_compared = 0;    ///< captured frames checked bitwise
  bool frames_identical = false;      ///< every frame matched bit-for-bit
  bool trigger_reproduced = false;    ///< the trigger step's condition re-fired
  double trigger_stat = 0.0;          ///< replayed detector statistic at the trigger
  std::string mismatch;               ///< first difference, empty when identical

  /// The dump is verified: bit-identical frames and a reproduced trigger.
  [[nodiscard]] bool verified() const noexcept {
    return frames_identical && trigger_reproduced;
  }
};

/// Rebuild the stream from the dump's spec, re-run it to steps_done, and
/// verify the captured window (see file header).  kInvalidInput when the
/// spec cannot be instantiated.
[[nodiscard]] core::Result<ReplayReport> replay_dump(const ForensicsDump& dump);

}  // namespace awd::serve
