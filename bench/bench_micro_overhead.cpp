// bench_micro_overhead — the self-relative observability overhead gate: the
// fully instrumented DetectionSystem step (metrics on plus a per-stream
// flight recorder) must cost at most kObsOverheadBudget more than the bare
// step, summed over the five plants.
//
// It compares two measurements taken back to back in one process, so it
// needs no stored baseline.  Exits 1 when the gate fails.
//
// Usage: bench_micro_overhead  (no options)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>

#include "bench_util.hpp"
#include "core/detection_system.hpp"
#include "obs/obs.hpp"

namespace {

using namespace awd;

constexpr double kObsOverheadBudget = 0.05;  ///< max relative cost of obs

const char* kCaseKeys[] = {"aircraft_pitch", "vehicle_turning", "series_rlc", "dc_motor",
                           "quadrotor"};

/// Mean ns per detection step over one batch of `steps` steps.  With a
/// recorder, every step is also distilled into its flight frame — the
/// serving engine's fully instrumented configuration.
double batch_step_ns(core::DetectionSystem& system, obs::FlightRecorder* recorder,
                     int steps) {
  sim::StepRecord rec;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < steps; ++i) {
    system.step_into(rec);
    if (recorder != nullptr) recorder->record(rec);
    bench::do_not_optimize(rec.t);
  }
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::nano>(stop - start).count() / steps;
}

/// Observability gate: per-step cost of the fully instrumented detection
/// loop — metrics collection on AND a per-stream flight recorder capturing
/// every step — vs the bare loop with both off, summed over the five plants
/// so per-case jitter averages out.  Returns false when the relative
/// overhead exceeds `budget`.
bool obs_overhead_gate(double budget) {
  constexpr int kBatches = 25;
  constexpr int kSteps = 2000;
  constexpr std::size_t kRecorderDepth = 256;  // the engine's default ring
  const bool was_enabled = awd::obs::enabled();
  double on_sum = 0.0;
  double off_sum = 0.0;
  std::printf("\nobservability overhead (DetectionSystem::step + flight recorder, "
              "min of %d x %d-step batches):\n",
              kBatches, kSteps);
  for (const char* key : kCaseKeys) {
    const core::SimulatorCase scase = core::simulator_case(key);
    core::DetectionSystem on_system(scase, core::AttackKind::kNone, 1);
    core::DetectionSystem off_system(scase, core::AttackKind::kNone, 1);
    obs::FlightRecorder recorder(kRecorderDepth);
    // Alternate on and off batches so host drift lands on both sides; the
    // minimum of each side is its noise-robust cost (interference only
    // ever adds time).
    double on_ns = std::numeric_limits<double>::infinity();
    double off_ns = on_ns;
    for (int b = 0; b < kBatches; ++b) {
      awd::obs::set_enabled(true);
      on_ns = std::min(on_ns, batch_step_ns(on_system, &recorder, kSteps));
      awd::obs::set_enabled(false);
      off_ns = std::min(off_ns, batch_step_ns(off_system, nullptr, kSteps));
    }
    std::printf("  %-16s on %8.1f ns   off %8.1f ns   overhead %+6.2f%%\n", key, on_ns,
                off_ns, off_ns > 0.0 ? (on_ns - off_ns) / off_ns * 100.0 : 0.0);
    on_sum += on_ns;
    off_sum += off_ns;
  }
  awd::obs::set_enabled(was_enabled);
  const double overhead = off_sum > 0.0 ? (on_sum - off_sum) / off_sum : 0.0;
  std::printf("  %-16s on %8.1f ns   off %8.1f ns   overhead %+6.2f%%  (budget %.0f%%)\n",
              "TOTAL", on_sum, off_sum, overhead * 100.0, budget * 100.0);
  if (overhead > budget) {
    std::fprintf(stderr, "obs overhead gate: FAIL — %.2f%% > %.0f%% budget\n",
                 overhead * 100.0, budget * 100.0);
    return false;
  }
  std::printf("obs overhead gate: OK\n");
  return true;
}

}  // namespace

int main() {
  return obs_overhead_gate(kObsOverheadBudget) ? 0 : 1;
}
