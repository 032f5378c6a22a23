// bench.hpp — shared pieces of the awd benchmark program: run arguments and
// results, a small JSON writer, the in-memory span log, and the workload
// runners' entry points.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "stats.hpp"

namespace perfbench {

/// Command-line arguments of one benchmark run.
struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_path;    ///< result file (host record + every metric)
  std::string spans_path;  ///< traced run: spans as JSON lines
  std::string commit = "unknown";
  std::string src_digest = "unknown";
};

/// Minimal JSON object writer (keys in insertion order).
class Json {
 public:
  Json& num(std::string_view key, double value);
  Json& count(std::string_view key, std::uint64_t value);
  Json& str(std::string_view key, std::string_view value);
  Json& flag(std::string_view key, bool value);
  Json& raw(std::string_view key, const std::string& json);
  Json& obj(std::string_view key, const Json& value) { return raw(key, value.dump()); }
  [[nodiscard]] std::string dump() const { return "{" + body_ + "}"; }
  [[nodiscard]] bool empty() const noexcept { return body_.empty(); }

 private:
  void key_(std::string_view key);
  std::string body_;
};

[[nodiscard]] std::string json_string(std::string_view s);
/// Shortest round-trip decimal form (all digits kept); null for NaN/Inf.
[[nodiscard]] std::string json_number(double v);
[[nodiscard]] std::string json_array(const std::vector<double>& values);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Outcome of one run: contract fields plus everything the result file
/// records.  `metrics` holds every metric the workload computed; run.py
/// selects the ones BENCHMARK.json names.
struct RunOutput {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> problems;
  Json details;  ///< workload-specific record (settings, shape counts, ...)
  Json spans;    ///< traced run: per-span-name aggregate

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void fail(std::string why) {
    correct = false;
    problems.push_back(std::move(why));
  }
};

/// Monotonic nanoseconds.
[[nodiscard]] inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

[[nodiscard]] inline double seconds_between(std::uint64_t a, std::uint64_t b) noexcept {
  return static_cast<double>(b - a) * 1e-9;
}

/// Spans recorded by the benchmark around its calls into each layer.  Kept
/// in memory during the run and written out at the end.  Not thread-safe:
/// parallel code records into one log per task and merges afterwards.
class SpanLog {
 public:
  std::int64_t open(const char* name, std::int64_t parent = -1, std::uint64_t stream = 0,
                    std::uint64_t step = 0) {
    spans_.push_back({name, now_ns(), 0, parent, stream, step});
    return static_cast<std::int64_t>(spans_.size() - 1);
  }
  void close(std::int64_t index) { spans_[static_cast<std::size_t>(index)].end_ns = now_ns(); }

  /// Append another log's spans; its roots get `parent` as their parent.
  void merge(const SpanLog& other, std::int64_t parent);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }

  struct Stat {
    std::uint64_t count = 0;
    double total_ns = 0.0;
    double self_ns = 0.0;
    [[nodiscard]] double mean_ns() const { return count ? total_ns / static_cast<double>(count) : 0.0; }
  };
  /// Count, total and self time per span name.
  [[nodiscard]] std::map<std::string, Stat> by_name() const;

  /// One JSON object per span (index, name, start/end, parent, ids).
  [[nodiscard]] bool write_jsonl(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// RAII span on an optional log (no-op when the log is null).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, std::int64_t parent = -1,
             std::uint64_t stream = 0, std::uint64_t step = 0)
      : log_(log), index_(log ? log->open(name, parent, stream, step) : -1) {}
  ~ScopedSpan() {
    if (log_) log_->close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  [[nodiscard]] std::int64_t index() const noexcept { return index_; }

 private:
  SpanLog* log_;
  std::int64_t index_;
};

/// Worker threads of every workload: min(4, nproc).
[[nodiscard]] std::size_t bench_threads();

/// Independent 64-bit draw for (seed, index, stream).
[[nodiscard]] std::uint64_t mix(std::uint64_t seed, std::uint64_t index, std::uint64_t stream);

/// One round of a repeated single-threaded measurement: runs `rep`, which
/// times one repetition and returns its seconds, for `seconds_per_cpu` (at
/// least once) on each CPU the calling thread may use, the thread pinned
/// there, and restores the thread's affinity afterwards.  On a shared
/// virtual machine a thread can run markedly slower on some vCPUs than on
/// others, and stays on one for seconds, so timing it wherever the
/// scheduler put it makes the figure a draw of placement.  Returns every
/// sample of the round.  Threads a repetition spawns inherit the pin.
[[nodiscard]] std::vector<double> pinned_round(double seconds_per_cpu,
                                               const std::function<double()>& rep);

/// Process peak RSS in MiB (VmHWM), or 0 when unreadable.
[[nodiscard]] double peak_rss_mib();

// Workload runners (serve.cpp, campaign.cpp).  Each throws
// std::invalid_argument for an unknown workload name.
[[nodiscard]] bool is_serve_workload(std::string_view name);
[[nodiscard]] RunOutput run_serve(const RunArgs& args, SpanLog& spans);
[[nodiscard]] RunOutput run_campaign(const RunArgs& args, SpanLog& spans);

}  // namespace perfbench
