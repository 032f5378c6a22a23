// Unit tests for the benchmark's own arithmetic (src/stats.hpp).  Exits
// non-zero on the first failed check; perfbench/run.py runs it after every
// build, before any measurement.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "stats.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what, int line) {
  if (ok) return;
  ++failures;
  std::fprintf(stderr, "stats_test.cpp:%d: FAILED %s\n", line, what);
}
#define CHECK(cond) check((cond), #cond, __LINE__)

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

std::vector<double> iota(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void tail_percentile_rule() {
  using perfbench::tail_percentile;
  // 1000 samples: p99 sits at rank 990 with exactly 10 samples beyond.
  auto p = tail_percentile(iota(1000));
  CHECK(p.pct == 99 && p.value == 990.0 && p.beyond == 10 && p.samples == 1000);
  // 999 samples: p99 leaves 9 beyond, so p98 (rank 980, 19 beyond).
  p = tail_percentile(iota(999));
  CHECK(p.pct == 98 && p.value == 980.0 && p.beyond == 19);
  // 100 samples: p90 is the highest with 10 beyond.
  p = tail_percentile(iota(100));
  CHECK(p.pct == 90 && p.value == 90.0 && p.beyond == 10);
  // Too few samples for any supported tail: p50, with the short count.
  p = tail_percentile(iota(15));
  CHECK(p.pct == 50 && p.value == 8.0 && p.beyond == 7);
  p = tail_percentile({});
  CHECK(p.samples == 0 && p.value == 0.0);
}

void quartiles_match_python() {
  using perfbench::quartiles;
  // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
  auto q = quartiles(iota(10));
  CHECK(near(q[0], 2.75) && near(q[1], 5.5) && near(q[2], 8.25));
  // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25] (clamped ends)
  q = quartiles({2.0, 1.0});
  CHECK(near(q[0], 0.75) && near(q[1], 1.5) && near(q[2], 2.25));
  // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
  q = quartiles({3.0, 1.0, 4.0, 1.0, 5.0});
  CHECK(near(q[0], 1.0) && near(q[1], 3.0) && near(q[2], 4.5));
  CHECK(perfbench::median({4.0, 1.0, 3.0, 2.0}) == 2.5);
  CHECK(perfbench::median({5.0, 1.0, 3.0}) == 3.0);
}

void median_of_minima_rule() {
  using perfbench::median_of_minima;
  // Group minima 1, 10, 4 -> 4.
  CHECK(median_of_minima({{3.0, 1.0, 2.0}, {10.0}, {7.0, 4.0}}) == 4.0);
  // Even count of groups: mean of the two middle minima (2 and 6).
  CHECK(median_of_minima({{5.0, 2.0}, {6.0, 9.0}, {1.0}, {8.0}}) == 4.0);
  CHECK(median_of_minima({{}, {2.0, 4.0}}) == 2.0);
  CHECK(median_of_minima({}) == 0.0);
}

void vmhwm_parsing() {
  using perfbench::parse_vmhwm_kb;
  const char* status =
      "Name:\tawd_perfbench\nVmPeak:\t  912344 kB\nVmHWM:\t   51234 kB\nVmRSS:\t   40000 kB\n";
  CHECK(parse_vmhwm_kb(status) == 51234u);
  CHECK(parse_vmhwm_kb("VmHWM: 7 kB") == 7u);  // last line, no newline
  CHECK(!parse_vmhwm_kb("VmRSS:\t 1 kB\n").has_value());
  CHECK(!parse_vmhwm_kb("VmHWM:\t  kB\n").has_value());
  CHECK(!parse_vmhwm_kb("VmHWM:\t 12 MB\n").has_value());
  CHECK(!parse_vmhwm_kb("").has_value());
}

void span_self_time() {
  using perfbench::Span;
  // 0: root [0, 100]
  // 1: child [10, 30] with grandchild 3 [15, 25]
  // 2: child [20, 50] overlapping child 1
  // 4: child [90, 120] running past the root's end (clipped to 100)
  // 5: an unrelated root [200, 260]
  const std::vector<Span> spans = {
      {"root", 0, 100, -1, 0, 0},   {"a", 10, 30, 0, 0, 0},  {"b", 20, 50, 0, 0, 0},
      {"a.inner", 15, 25, 1, 0, 0}, {"c", 90, 120, 0, 0, 0}, {"other", 200, 260, -1, 0, 0},
  };
  const std::vector<std::uint64_t> self = perfbench::self_times(spans);
  CHECK(self.size() == spans.size());
  CHECK(self[0] == 100 - (40 + 10));  // children cover [10, 50] and [90, 100]
  CHECK(self[1] == 20 - 10);          // the grandchild counts against its parent only
  CHECK(self[2] == 30);
  CHECK(self[3] == 10);
  CHECK(self[4] == 30);
  CHECK(self[5] == 60);
}

}  // namespace

int main() {
  tail_percentile_rule();
  quartiles_match_python();
  median_of_minima_rule();
  vmhwm_parsing();
  span_self_time();
  if (failures) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return EXIT_FAILURE;
  }
  std::printf("perfbench stats tests passed\n");
  return EXIT_SUCCESS;
}
