// bench_reach_backends — the reachability-backend gate (DESIGN.md §17):
// per-backend deadline-estimate latency on every small seed plant, plus two
// families of derived metrics in awd_metrics.derived:
//
//   * reach_table_speedup_<plant>      — box-walk time / table-lookup time
//     per estimate (min over repetitions of chrono loops over the same
//     probe set).  tools/bench_compare gates this with an *absolute floor*
//     (--reach-speedup-min, default 10): the table backend exists to be an
//     order of magnitude cheaper than the walk, and a change that erodes
//     that — however fast in absolute terms — defeats the design.
//   * reach_conservatism_table_<plant> — mean (t_table + 1) / (t_box + 1)
//     over the probe set, in (0, 1] by the soundness contract.  Gated on
//     absolute drop (--metrics-tolerance): a collapse means the table
//     turned uselessly conservative even though it is still sound.
//
// Before benchmarking, main() verifies the contract the metrics depend on:
// backends rebuilt from the same spec must answer bit-identically, and the
// soundness ordering (in-domain table <= box) must hold on every probe — an
// unsound backend cannot be a baseline.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_json.hpp"
#include "core/config.hpp"
#include "reach/backend.hpp"
#include "reach/deadline.hpp"
#include "reach/table.hpp"

namespace {

using namespace awd;
using linalg::Vec;

const char* const kPlants[] = {"aircraft_pitch", "vehicle_turning", "series_rlc",
                               "dc_motor"};

struct PlantSetup {
  std::string plant;
  std::unique_ptr<reach::Backend> box;
  std::unique_ptr<reach::Backend> table;
  std::vector<Vec> probes;  ///< in-domain probe states, fixed xorshift cloud
};

/// One fixed spec set per plant for contract check, benchmark and baseline
/// alike: the committed metrics must be the numbers this binary measures.
reach::BackendSpec plant_spec(const char* plant) {
  core::SimulatorCase scase = core::simulator_case(plant);
  scase.reach_backend = reach::BackendKind::kTable;
  scase.reach_table_cells = scase.model.state_dim() <= 3 ? 8 : 4;
  return core::make_backend_spec(scase, /*init_radius=*/0.0, /*budget_steps=*/0);
}

PlantSetup make_setup(const char* plant) {
  PlantSetup s;
  s.plant = plant;
  reach::BackendSpec spec = plant_spec(plant);
  const reach::Box domain = spec.table.domain;

  spec.kind = reach::BackendKind::kBox;
  s.box = reach::make_backend(spec).value();
  spec.kind = reach::BackendKind::kTable;
  s.table = reach::make_backend(spec).value();

  // Probe the inner quarter of the trusted domain: deadline seeds are by
  // construction trusted states — the pipeline only reseeds from states it
  // still believes, which cluster near the reference trajectory the table
  // domain is centered on.  There the walk runs deep (avg deadline 12+ steps
  // on aircraft_pitch vs 8.6 at half-domain); the uniform-over-domain
  // alternative spends most probes next to the boundary, where any walk
  // exits after a step or two and the comparison measures dispatch overhead
  // instead of the walk.
  const std::size_t n = spec.model.state_dim();
  std::uint64_t rng = 0x9e3779b97f4a7c15ULL;
  for (int k = 0; k < 256; ++k) {
    Vec x(n);
    for (std::size_t i = 0; i < n; ++i) {
      rng ^= rng << 13;
      rng ^= rng >> 7;
      rng ^= rng << 17;
      const double unit =
          static_cast<double>(rng >> 11) / static_cast<double>(1ULL << 52) -
          1.0;  // [-1, 1)
      x[i] = domain[i].center() + 0.25 * unit * domain[i].half_width();
    }
    s.probes.push_back(std::move(x));
  }
  return s;
}

/// Gate precondition: rebuild determinism + table soundness.
bool verify_contract(const PlantSetup& s) {
  const std::unique_ptr<reach::Backend> rebuilt =
      [&] {
        reach::BackendSpec spec = plant_spec(s.plant.c_str());
        spec.kind = reach::BackendKind::kTable;
        return reach::make_backend(spec).value();
      }();
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

/// Mean (t + 1) / (t_box + 1) over the probe set — the tightness a backend
/// retains relative to the exact walk.
double conservatism_ratio(const reach::Backend& backend, const PlantSetup& s) {
  double sum = 0.0;
  for (const Vec& x : s.probes) {
    sum += static_cast<double>(backend.estimate(x) + 1) /
           static_cast<double>(s.box->estimate(x) + 1);
  }
  return sum / static_cast<double>(s.probes.size());
}

/// One timed pass over the probe set: mean ns per estimate.
double timed_pass_ns(const reach::Backend& backend, const PlantSetup& s,
                     int rounds) {
  std::size_t sink = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (int round = 0; round < rounds; ++round) {
    for (const Vec& x : s.probes) sink += backend.estimate(x);
  }
  const auto t1 = std::chrono::steady_clock::now();
  benchmark::DoNotOptimize(sink);
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
WalkVsLookup walk_vs_lookup_ns(const PlantSetup& s) {
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

/// Splice the derived metrics into the report (same mechanism as
/// bench_detector_roc): the flat map bench_compare's gates read.
void append_derived_block(const std::string& json_path,
                          const std::vector<std::pair<std::string, double>>& metrics) {
  std::ifstream in(json_path);
  if (!in) return;
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  in.close();
  const std::size_t close = text.find_last_of('}');
  if (close == std::string::npos) return;
  std::ofstream out(json_path, std::ios::trunc);
  if (!out) return;
  out << text.substr(0, close) << ",\n  \"awd_metrics\": {\n    \"derived\": {";
  out.precision(17);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << (i == 0 ? "\n" : ",\n") << "      \"" << metrics[i].first
        << "\": " << metrics[i].second;
  }
  out << "\n    }\n  }\n}\n";
}

void register_benchmarks(const std::vector<PlantSetup>& setups) {
  for (const PlantSetup& s : setups) {
    const auto reg = [&s](const char* label, const reach::Backend& backend) {
      benchmark::RegisterBenchmark(
          ("BM_ReachEstimate/" + std::string(label) + "/" + s.plant).c_str(),
          [&backend, &s](benchmark::State& state) {
            std::size_t i = 0;
            for (auto _ : state) {
              benchmark::DoNotOptimize(backend.estimate(s.probes[i]));
              i = (i + 1) & 255;
            }
          });
    };
    reg("box", *s.box);
    reg("table", *s.table);
  }
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;

  std::vector<PlantSetup> setups;
  for (const char* plant : kPlants) setups.push_back(make_setup(plant));

  std::vector<std::pair<std::string, double>> metrics;
  for (const PlantSetup& s : setups) {
    if (!verify_contract(s)) return 1;
    const WalkVsLookup timing = walk_vs_lookup_ns(s);
    const double walk_ns = timing.box_ns;
    const double table_ns = timing.table_ns;
    const double speedup = timing.speedup;
    const double cons_tab = conservatism_ratio(*s.table, s);
    std::printf("%-18s box %8.1f ns  table %6.1f ns  speedup %7.1fx  "
                "conservatism table %.3f\n",
                s.plant.c_str(), walk_ns, table_ns, speedup, cons_tab);
    metrics.emplace_back("reach_table_speedup_" + s.plant, speedup);
    metrics.emplace_back("reach_conservatism_table_" + s.plant, cons_tab);
  }
  std::printf("\n");

  register_benchmarks(setups);
  const std::string json_path = "BENCH_reach_backends.json";
  {
    std::ofstream json_out(json_path);
    if (!json_out) {
      std::fprintf(stderr, "warning: cannot open %s for writing\n", json_path.c_str());
      benchmark::RunSpecifiedBenchmarks();
      benchmark::Shutdown();
      return 0;
    }
    awd::bench::TeeReporter tee(&json_out);
    benchmark::RunSpecifiedBenchmarks(&tee);
  }
  append_derived_block(json_path, metrics);
  benchmark::Shutdown();
  return 0;
}
