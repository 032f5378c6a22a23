// replay.hpp — layer-by-layer replay of one stream for the traced run.
//
// core::DetectionSystem fuses the simulator with the paper's three
// components, so the program offers no per-stage timing.  The replay drives
// the layers' public classes one call at a time, in step_into's order
// (Simulator, DataLogger::log_checked, Backend::estimate_checked with the
// decay fallback, AdaptiveDetector, FixedWindowDetector, HealthMonitor, and
// on the serving path StreamingMetrics and FlightRecorder), with a span
// around each call.  A real DetectionSystem of the same spec steps alongside
// and every detection field of every StepRecord must match it bit for bit.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "awd.hpp"
#include "bench.hpp"

namespace perfbench {

/// Shape counts and check outcome of replayed streams (summed by add()).
struct ReplayStats {
  std::uint64_t streams = 0;
  std::uint64_t steps = 0;
  std::uint64_t evaluations = 0;       ///< adaptive window tests incl. sweeps
  std::uint64_t shrinks = 0;           ///< steps whose window shrank
  std::uint64_t window_sum = 0;
  std::uint64_t alarm_edges = 0;       ///< adaptive-alarm rising edges
  std::uint64_t seed_unavailable = 0;  ///< steps with no trusted deadline seed
  std::uint64_t fallbacks = 0;         ///< deadline decay-fallback steps
  std::uint64_t degraded = 0;          ///< steps with health != nominal
  std::uint64_t mismatches = 0;        ///< streams that differ from DetectionSystem
  std::string first_mismatch;

  void add(const ReplayStats& o);
  [[nodiscard]] bool same_shape(const ReplayStats& o) const;
  [[nodiscard]] Json json() const;
};

struct ReplayInput {
  const awd::SimulatorCase* scase = nullptr;
  awd::AttackKind attack = awd::AttackKind::kNone;
  std::uint64_t seed = 0;
  std::size_t steps = 0;  ///< 0 = scase->steps
  awd::DetectionSystemOptions options;  ///< as the reference system gets them
  std::shared_ptr<const awd::Backend> backend;
  /// Serving path: also score with StreamingMetrics and record into a
  /// FlightRecorder of this depth (0 = campaign path, neither stage).
  std::size_t recorder_depth = 0;
  awd::MetricsOptions metrics;  ///< serving path only
  std::uint64_t stream_id = 0;  ///< span id
};

/// Replay one stream layer by layer into `spans` and compare it with a
/// DetectionSystem created from the same input.
[[nodiscard]] ReplayStats replay_stream(const ReplayInput& in, SpanLog* spans);

/// Bitwise RunMetrics equality (fp_rate compared as its bit pattern).
[[nodiscard]] bool same_run_metrics(const awd::RunMetrics& a, const awd::RunMetrics& b);

}  // namespace perfbench
