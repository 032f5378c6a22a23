// export.hpp — render the observability state to files and strings.
//
// Render targets:
//   * Prometheus text exposition (metrics.prom) — counters/gauges/
//     histograms under their registered names (each histogram also exports
//     interpolated p50/p99 quantile gauges), Timer profile entries as
//     *_seconds_total / *_calls_total pairs;
//   * JSON summary (metrics.json) — one object with "counters", "gauges",
//     "histograms", "profile" and a "derived" block of ratio metrics
//     (currently the deadline-cache hit rate) that are iteration-count
//     independent and therefore comparable across runs;
//   * Chrome trace-event JSON (trace.json, chrome://tracing-loadable) and a
//     JSONL stream (trace.jsonl) of the collected tracer events;
//   * the structured event log (events.jsonl, see event_log.hpp).
//
// write_obs_dir() materializes all five under one directory — the backing
// store of the --obs-out command-line flag.
//
// Failure path: install_failure_flush() arms atexit + std::terminate hooks
// that write the same directory (plus any registered failure hooks, e.g. a
// StreamEngine's crash dumps) before the process dies, so traces and event
// logs survive a crash instead of being truncated with the process.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/status.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace awd::obs {

[[nodiscard]] std::string prometheus_text(const MetricsSnapshot& snap);
[[nodiscard]] std::string metrics_json(const MetricsSnapshot& snap);
[[nodiscard]] std::string chrome_trace_json(const std::vector<TraceEvent>& events);
[[nodiscard]] std::string trace_jsonl(const std::vector<TraceEvent>& events);

/// Interpolated quantile (q in [0, 1]) of a Prometheus-style cumulative
/// histogram sample: linear within the winning bucket, with the +Inf bucket
/// clamped to the last finite bound.  0 when the histogram is empty.
[[nodiscard]] double histogram_quantile(const MetricsSnapshot::HistogramSample& h,
                                        double q) noexcept;

/// Write metrics.prom, metrics.json, trace.json, trace.jsonl and
/// events.jsonl for the global registry/tracer/event-log into `dir`
/// (created if missing).  Returns kUnavailable when the directory cannot
/// be created or a file cannot be written.
[[nodiscard]] core::Status write_obs_dir(const std::string& dir);

/// Arm the failure path: remember `dir` and install atexit and
/// std::terminate hooks (once per process; the latest dir wins) that run
/// flush_failure_artifacts().  The terminate hook chains to the previous
/// handler, so the process still aborts after flushing.
void install_failure_flush(const std::string& dir);

/// Write the armed directory and run every registered failure hook.
/// Idempotent and safe to call from a terminate handler; a no-op when
/// install_failure_flush was never called.
void flush_failure_artifacts() noexcept;

/// Register a callback to run during flush_failure_artifacts (before the
/// obs directory is written, so its effects — e.g. forensic dumps and
/// their events — land in the flushed artifacts).  Returns a token for
/// remove_failure_hook.  Not gated on obs::enabled(): crash forensics must
/// work even with metrics collection off.
[[nodiscard]] std::uint64_t add_failure_hook(std::function<void()> hook);
void remove_failure_hook(std::uint64_t token) noexcept;

/// Command-line plumbing for bench/example mains: parses and *removes*
/// --obs-out=<dir> (or "--obs-out <dir>") from argv so downstream flag
/// parsers never see it, starts the global tracer when the flag is
/// present, and writes the directory on destruction.
class ObsSession {
 public:
  ObsSession(int& argc, char** argv);
  ~ObsSession();

  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;

  [[nodiscard]] bool active() const noexcept { return !dir_.empty(); }
  [[nodiscard]] const std::string& dir() const noexcept { return dir_; }

 private:
  std::string dir_;
};

}  // namespace awd::obs
