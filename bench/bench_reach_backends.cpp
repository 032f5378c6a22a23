// bench_reach_backends — the table backend's speed gate (DESIGN.md §17):
// per-estimate cost of the box walk vs the precomputed-table lookup on
// every small seed plant, with the table's conservatism ratio alongside.
//
// The table backend exists to answer in O(1), whatever the walk costs.
// The program exits 1 when, on any plant:
//   * the lookup's own cost (min per-estimate ns over interleaved pairs)
//     is above that plant's absolute ceiling (kPlants below), or
//   * the table outlasts the walk: the median of the per-pair box/table
//     ratios is below 1.
// The box/table ratio is printed for reference; it moves with the walk's
// speed, not the table's.  The conservatism ratio is printed too; its
// floor is a tier-1 test (tests/reach/table_conservatism_test.cpp) on the
// same probe setup.
//
// Before timing, main() verifies the contract the numbers depend on:
// backends rebuilt from the same spec must answer bit-identically, and the
// soundness ordering (in-domain table <= box) must hold on every probe — a
// fast but unsound backend means nothing.
//
// Usage: bench_reach_backends  (no options)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <memory>
#include <vector>

#include "bench_util.hpp"
#include "reach/backend.hpp"
#include "testkit/reach_probes.hpp"

namespace {

using namespace awd;
using linalg::Vec;
using testkit::TableProbeSetup;

/// Each plant with its lookup ceiling: 3x the median lookup cost of 20
/// runs on a shared 4-vCPU x86-64 host (7.6, 4.6, 6.6 and 7.5 ns; slowest
/// run 9.3, 5.7, 7.6 and 9.8 ns), rounded up.  A lookup that walks instead
/// measured 33-122 ns there, above every ceiling.
struct PlantGate {
  const char* name;
  double table_ceiling_ns;
};
constexpr PlantGate kPlants[] = {{"aircraft_pitch", 23.0},
                                 {"vehicle_turning", 14.0},
                                 {"series_rlc", 20.0},
                                 {"dc_motor", 23.0}};

/// Gate precondition: rebuild determinism + table soundness.
bool verify_contract(const TableProbeSetup& s) {
  const std::unique_ptr<reach::Backend> rebuilt =
      reach::make_backend(testkit::table_probe_spec(s.plant)).value();
  if (rebuilt->fingerprint() != s.table->fingerprint()) {
    std::fprintf(stderr, "FATAL: %s table fingerprint not reproducible\n",
                 s.plant.c_str());
    return false;
  }
  for (const Vec& x : s.probes) {
    const std::size_t t_box = s.box->estimate(x);
    const std::size_t t_tab = s.table->estimate(x);
    if (t_tab > t_box || rebuilt->estimate(x) != t_tab) {
      std::fprintf(stderr,
                   "FATAL: %s soundness/determinism violated (box %zu, table %zu)\n",
                   s.plant.c_str(), t_box, t_tab);
      return false;
    }
  }
  return true;
}

/// One timed pass over the probe set: mean ns per estimate.
double timed_pass_ns(const reach::Backend& backend, const TableProbeSetup& s,
                     int rounds) {
  std::size_t sink = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (int round = 0; round < rounds; ++round) {
    for (const Vec& x : s.probes) sink += backend.estimate(x);
  }
  const auto t1 = std::chrono::steady_clock::now();
  bench::do_not_optimize(sink);
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count()) /
         (static_cast<double>(rounds) * static_cast<double>(s.probes.size()));
}

struct WalkVsLookup {
  double box_ns;     ///< min per-estimate walk cost over pairs
  double table_ns;   ///< min per-estimate lookup cost over pairs — gated
  double speedup;    ///< median of per-pair box/table ratios — gated at >= 1
};

/// Per-estimate cost of the box walk vs the table lookup, measured as
/// *pairs* (one box pass immediately followed by one table pass).  The
/// min over pairs is the cost least disturbed by co-tenants; the median of
/// the per-pair ratios sheds the pairs a context switch split down the
/// middle.
WalkVsLookup walk_vs_lookup_ns(const TableProbeSetup& s) {
  constexpr int kPairs = 15;  // odd, so the median is one pair's ratio
  constexpr int kRounds = 24;
  (void)timed_pass_ns(*s.box, s, 4);  // warmup: page in + raise clocks
  (void)timed_pass_ns(*s.table, s, 4);
  double box_best = std::numeric_limits<double>::infinity();
  double table_best = std::numeric_limits<double>::infinity();
  std::vector<double> ratios;
  ratios.reserve(kPairs);
  for (int pair = 0; pair < kPairs; ++pair) {
    const double b = timed_pass_ns(*s.box, s, kRounds);
    const double t = timed_pass_ns(*s.table, s, kRounds);
    if (b < box_best) box_best = b;
    if (t < table_best) table_best = t;
    ratios.push_back(t > 0.0 ? b / t : 0.0);
  }
  std::nth_element(ratios.begin(), ratios.begin() + kPairs / 2, ratios.end());
  return {box_best, table_best, ratios[kPairs / 2]};
}

}  // namespace

int main() {
  bool ok = true;
  for (const PlantGate& gate : kPlants) {
    const TableProbeSetup s = testkit::make_table_probe_setup(gate.name);
    if (!verify_contract(s)) return 1;
    const WalkVsLookup timing = walk_vs_lookup_ns(s);
    const bool under_ceiling = timing.table_ns <= gate.table_ceiling_ns;
    const bool never_outlasts = timing.speedup >= 1.0;
    const char* verdict = "ok";
    if (!under_ceiling) {
      verdict = "FAIL (lookup above ceiling)";
    } else if (!never_outlasts) {
      verdict = "FAIL (table outlasts walk)";
    }
    std::printf("%-18s box %8.1f ns  table %6.1f ns (ceiling %4.1f)  speedup %7.1fx  "
                "conservatism table %.3f  %s\n",
                gate.name, timing.box_ns, timing.table_ns, gate.table_ceiling_ns,
                timing.speedup, testkit::table_conservatism(s), verdict);
    ok = ok && under_ceiling && never_outlasts;
  }
  if (!ok) {
    std::fprintf(stderr, "reach table gate: FAIL\n");
    return 1;
  }
  std::printf("reach table gate: OK (lookup under ceiling, never slower than the walk)\n");
  return 0;
}
