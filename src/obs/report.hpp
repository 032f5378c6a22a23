// report.hpp — load and summarize an --obs-out directory.
//
// The ingestion side of the observability layer: minimal, dependency-free
// parsers for exactly the JSON this repo's exporters emit (metrics.json and
// the Chrome trace-event trace.json), plus the pretty-printer behind
// `awd obs` (top-N slowest spans, per-stage profile, counter table).  The parsers are scanners — they understand our
// flat output, not arbitrary JSON.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace awd::obs {

/// metrics.json, flattened for display.
struct LoadedMetrics {
  std::vector<std::pair<std::string, double>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<std::pair<std::string, double>> derived;
  struct Profile {
    std::string name;
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t min_ns = 0;
    std::uint64_t max_ns = 0;
  };
  std::vector<Profile> profile;
  struct Hist {
    std::string name;
    std::vector<double> bounds;
    std::vector<std::uint64_t> counts;
    double sum = 0.0;
    std::uint64_t count = 0;
  };
  std::vector<Hist> histograms;
};

/// One span/instant from trace.json (Chrome trace-event units: µs).
struct LoadedSpan {
  std::string name;
  std::string cat;
  char ph = 'X';
  double ts_us = 0.0;
  double dur_us = 0.0;
  int tid = 0;
};

/// Parse <path>; *ok is false on open/shape failure.
[[nodiscard]] LoadedMetrics load_metrics_json(const std::string& path, bool* ok);
[[nodiscard]] std::vector<LoadedSpan> load_chrome_trace(const std::string& path, bool* ok);

/// Print the standard summary of an --obs-out directory: counter/gauge
/// table, derived ratios, per-stage profile, and the top `top_n` slowest
/// spans.  Returns false when neither metrics.json nor trace.json could be
/// read.
bool print_obs_summary(const std::string& dir, std::size_t top_n);

}  // namespace awd::obs
