// stats.hpp — the benchmark's own arithmetic: tail percentiles, quartiles,
// median of group minima, VmHWM parsing and span self time.  Header-only so
// tests/stats_test.cpp checks exactly the code the runs use.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile of sorted samples: the smallest sample with at
/// least p% of the samples at or below it.  `sorted` must be non-empty.
[[nodiscard]] inline std::size_t nearest_rank(std::size_t n, int pct) {
  const std::size_t rank =
      static_cast<std::size_t>(std::ceil(static_cast<double>(pct) / 100.0 *
                                         static_cast<double>(n)));
  return std::clamp<std::size_t>(rank, 1, n);
}

/// A tail percentile together with the samples it rests on.
struct TailPercentile {
  int pct = 0;              ///< integer percentile actually reported
  double value = 0.0;
  std::size_t samples = 0;  ///< samples the percentile was taken over
  std::size_t beyond = 0;   ///< samples strictly past its rank
};

/// The highest integer percentile in [50, 99] that has at least
/// `min_beyond` samples past its nearest rank — p99 when there are enough
/// samples.  With too few samples for even p50 it reports p50 with the
/// short `beyond` count, so the caller can see the tail is unsupported.
[[nodiscard]] inline TailPercentile tail_percentile(std::vector<double> samples,
                                                    std::size_t min_beyond = 10) {
  TailPercentile out;
  out.samples = samples.size();
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  for (int pct = 99; pct >= 50; --pct) {
    const std::size_t rank = nearest_rank(n, pct);
    out.pct = pct;
    out.value = samples[rank - 1];
    out.beyond = n - rank;
    if (out.beyond >= min_beyond) break;
  }
  return out;
}

/// Median (mean of the two middle samples for an even count); 0 when empty.
[[nodiscard]] inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// Arithmetic mean; 0 when empty.
[[nodiscard]] inline double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

/// Quartiles exactly as Python's statistics.quantiles(data, n=4) computes
/// them (method "exclusive", which clamps to the outermost samples).
/// Needs at least two samples; a single sample is returned three times.
[[nodiscard]] inline std::array<double, 3> quartiles(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t ld = v.size();
  if (ld == 0) return {0.0, 0.0, 0.0};
  if (ld == 1) return {v[0], v[0], v[0]};
  constexpr std::size_t n = 4;
  const std::size_t m = ld + 1;
  std::array<double, 3> q{};
  for (std::size_t i = 1; i < n; ++i) {
    std::size_t j = i * m / n;
    j = std::clamp<std::size_t>(j, 1, ld - 1);
    const auto delta = static_cast<double>(static_cast<std::int64_t>(i * m) -
                                           static_cast<std::int64_t>(j * n));
    q[i - 1] = (v[j - 1] * (static_cast<double>(n) - delta) + v[j] * delta) /
               static_cast<double>(n);
  }
  return q;
}

/// Each non-empty group's fastest sample, in group order.
[[nodiscard]] inline std::vector<double> minima(const std::vector<std::vector<double>>& groups) {
  std::vector<double> out;
  for (const std::vector<double>& g : groups) {
    if (!g.empty()) out.push_back(*std::min_element(g.begin(), g.end()));
  }
  return out;
}

/// Median over groups of each group's fastest sample; 0 when every group
/// is empty.  Co-tenant load only ever slows a repetition down, so the
/// fastest of a group taken close together in time is its least disturbed
/// reading, and the median over groups spread in time keeps one lucky or
/// wholly disturbed group from setting the figure.
[[nodiscard]] inline double median_of_minima(const std::vector<std::vector<double>>& groups) {
  return median(minima(groups));
}

/// Peak resident set size from the text of /proc/<pid>/status: the VmHWM
/// line's value in kB.  nullopt when the line is missing or malformed.
[[nodiscard]] inline std::optional<std::uint64_t> parse_vmhwm_kb(std::string_view status) {
  constexpr std::string_view kKey = "VmHWM:";
  std::size_t pos = 0;
  while (pos < status.size()) {
    std::size_t end = status.find('\n', pos);
    if (end == std::string_view::npos) end = status.size();
    std::string_view line = status.substr(pos, end - pos);
    pos = end + 1;
    if (line.substr(0, kKey.size()) != kKey) continue;
    line.remove_prefix(kKey.size());
    while (!line.empty() && (line.front() == ' ' || line.front() == '\t')) line.remove_prefix(1);
    std::uint64_t kb = 0;
    std::size_t digits = 0;
    while (digits < line.size() && line[digits] >= '0' && line[digits] <= '9') {
      kb = kb * 10 + static_cast<std::uint64_t>(line[digits] - '0');
      ++digits;
    }
    if (digits == 0) return std::nullopt;
    line.remove_prefix(digits);
    while (!line.empty() && line.front() == ' ') line.remove_prefix(1);
    if (line.substr(0, 2) != "kB") return std::nullopt;
    return kb;
  }
  return std::nullopt;
}

/// One recorded span: a named interval with the index of the span that
/// caused it (-1 for a root) and the (stream, step) id it belongs to.
struct Span {
  const char* name = "";
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int64_t parent = -1;
  std::uint64_t stream = 0;
  std::uint64_t step = 0;
};

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (children may overlap each other, e.g.
/// parallel workers; the covered union counts once, clipped to the parent).
[[nodiscard]] inline std::vector<std::uint64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0 || static_cast<std::size_t>(s.parent) >= spans.size()) continue;
    children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns, s.end_ns);
  }
  std::vector<std::uint64_t> out(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& p = spans[i];
    const std::uint64_t dur = p.end_ns > p.start_ns ? p.end_ns - p.start_ns : 0;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::uint64_t covered = 0;
    std::uint64_t cur_lo = 0;
    std::uint64_t cur_hi = 0;
    bool open = false;
    for (auto [lo, hi] : kids) {
      lo = std::max(lo, p.start_ns);
      hi = std::min(hi, p.end_ns);
      if (hi <= lo) continue;
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    out[i] = dur - std::min(dur, covered);
  }
  return out;
}

}  // namespace perfbench
