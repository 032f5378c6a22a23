// flight_recorder.hpp — per-stream forensic flight recorder.
//
// A fixed-capacity ring of compact per-step frames: everything needed to
// reconstruct *why* a detector fired — residual norm, the window test's
// normalized statistic vs. τ, window size, deadline estimate, health state
// and the fault-injection flags — without retaining full StepRecords (a
// frame is 40 bytes vs. the record's seven state-dimension vectors).
//
// The recorder is allocation-free after construction: record() copies one
// frame into a preallocated ring under a per-recorder mutex.  The mutex is
// uncontended in the serving engine (one shard thread writes, the driver
// reads between batches) and exists so that a crash-path or introspection
// dump racing a writer reads consistent frames instead of torn ones.
//
// Frames are plain data on purpose: serve::encode_dump frames them through
// the core::ckpt codec into .awdfr images, and `awd forensics` replays
// a dump through a fresh DetectionSystem and compares frames *bitwise*
// (doubles as IEEE-754 bit patterns) — the determinism contract makes that
// comparison exact at any thread count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "sim/trace.hpp"

namespace awd::obs {

/// FlightFrame::flags bit assignments (one bit per StepRecord boolean).
enum FrameFlags : std::uint16_t {
  kFrameAdaptiveAlarm = 1u << 0,
  kFrameFixedAlarm = 1u << 1,
  kFrameAttackActive = 1u << 2,
  kFrameUnsafe = 1u << 3,
  kFrameSampleMissing = 1u << 4,
  kFrameEstimateFallback = 1u << 5,
  kFrameResidualQuarantined = 1u << 6,
  kFrameDeadlineFallback = 1u << 7,
};

/// One recorded control period — the forensic distillation of a StepRecord.
struct FlightFrame {
  std::uint64_t t = 0;          ///< absolute control step
  double residual_norm = 0.0;   ///< ‖z_t‖∞ (StepRecord::residual_norm)
  double detect_stat = 0.0;     ///< max_d mean[d]/τ[d] (StepRecord::detect_stat)
  std::uint32_t deadline = 0;   ///< deadline estimate t_d
  std::uint32_t window = 0;     ///< adaptive window size w_c
  std::uint16_t flags = 0;      ///< FrameFlags bitmask
  std::uint8_t fault = 0;       ///< fault::FaultKind underlying value
  std::uint8_t health = 0;      ///< fault::HealthState underlying value

  [[nodiscard]] bool flag(FrameFlags f) const noexcept { return (flags & f) != 0; }
};

/// Distill a completed step into a frame.
[[nodiscard]] FlightFrame make_frame(const sim::StepRecord& rec) noexcept;

/// Bitwise frame equality: doubles compared as bit patterns (NaN-safe), so
/// "equal" means byte-for-byte reproducible, not merely numerically close.
[[nodiscard]] bool frames_bit_identical(const FlightFrame& a,
                                        const FlightFrame& b) noexcept;

/// Fixed-capacity, allocation-free ring of the most recent frames.
class FlightRecorder {
 public:
  /// Capacity is clamped to >= 1; the ring is fully allocated here.
  explicit FlightRecorder(std::size_t capacity);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Append one step (O(1), no allocation); evicts the oldest frame when
  /// full.  Thread-safe against snapshot()/clear().
  void record(const sim::StepRecord& rec) noexcept;
  void record_frame(const FlightFrame& frame) noexcept;

  /// Copy the retained frames, oldest first, into `out` (resized; its
  /// buffer is reused across calls).
  void snapshot(std::vector<FlightFrame>& out) const;

  /// Forget every frame (slot reuse between streams).
  void clear() noexcept;

  [[nodiscard]] std::size_t size() const noexcept;
  [[nodiscard]] std::size_t capacity() const noexcept { return ring_.size(); }
  /// Total frames ever recorded (>= size(); the excess was evicted).
  [[nodiscard]] std::uint64_t recorded() const noexcept;

 private:
  mutable std::mutex mu_;
  std::vector<FlightFrame> ring_;  ///< preallocated, indexed head_ % capacity
  std::size_t size_ = 0;           ///< retained frames (<= capacity)
  std::size_t head_ = 0;           ///< next write position
  std::uint64_t recorded_ = 0;     ///< lifetime frame count
};

}  // namespace awd::obs
