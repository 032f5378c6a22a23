// bench_reach_backends — the table backend's speed gate (DESIGN.md §17):
// per-estimate cost of the box walk vs the precomputed-table lookup on
// every small seed plant, with the table's conservatism ratio alongside.
//
// The table backend exists to be an order of magnitude cheaper than the
// walk: the program exits 1 when any plant's speedup (median of
// interleaved box/table pairs) is below kSpeedupFloor.  The conservatism
// ratio is printed for reference; its floor is a tier-1 test
// (tests/reach/table_conservatism_test.cpp) on the same probe setup.
//
// Before timing, main() verifies the contract the numbers depend on:
// backends rebuilt from the same spec must answer bit-identically, and the
// soundness ordering (in-domain table <= box) must hold on every probe — a
// speedup over an unsound backend means nothing.
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

const char* const kPlants[] = {"aircraft_pitch", "vehicle_turning", "series_rlc",
                               "dc_motor"};

/// Minimum table speedup over the box walk, per plant.
constexpr double kSpeedupFloor = 10.0;

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
  double table_ns;   ///< min per-estimate lookup cost over pairs
  double speedup;    ///< median of per-pair box/table ratios — the gated value
};

/// Per-estimate cost of the box walk vs the table lookup, measured as
/// *pairs* (one box pass immediately followed by one table pass) with the
/// gated speedup taken as the median of the per-pair ratios.  The absolute
/// timings on a shared single-vCPU box swing 2x with steal time, but the
/// two passes of a pair see near-identical conditions, so their ratio is
/// stable where separately-reduced mins are not; the median then sheds the
/// pairs a context switch split down the middle.
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
  for (const char* plant : kPlants) {
    const TableProbeSetup s = testkit::make_table_probe_setup(plant);
    if (!verify_contract(s)) return 1;
    const WalkVsLookup timing = walk_vs_lookup_ns(s);
    const bool pass = timing.speedup >= kSpeedupFloor;
    std::printf("%-18s box %8.1f ns  table %6.1f ns  speedup %7.1fx  "
                "conservatism table %.3f  %s\n",
                plant, timing.box_ns, timing.table_ns, timing.speedup,
                testkit::table_conservatism(s), pass ? "ok" : "FAIL");
    ok = ok && pass;
  }
  if (!ok) {
    std::fprintf(stderr, "reach speedup gate: FAIL — below %.0fx floor\n", kSpeedupFloor);
    return 1;
  }
  std::printf("reach speedup gate: OK (>= %.0fx)\n", kSpeedupFloor);
  return 0;
}
