// bench_micro_overhead — the two self-relative overhead gates:
//
//   * observability: the fully instrumented DetectionSystem step (metrics on
//     plus a per-stream flight recorder) must cost at most kObsOverheadBudget
//     more than the bare step, summed over the five plants;
//   * SIMD: the matvec and support-walk kernels pinned to the runtime vector
//     set must beat the scalar reference set by at least kSimdSpeedupTarget
//     (skipped when the runtime set is scalar).
//
// Both compare two measurements taken back to back in one process, so they
// need no stored baseline.  Exits 1 when either gate fails.
//
// Usage: bench_micro_overhead  (no options)
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <vector>

#include "bench_util.hpp"
#include "core/detection_system.hpp"
#include "linalg/kernels.hpp"
#include "linalg/matrix.hpp"
#include "obs/obs.hpp"

namespace {

using namespace awd;

constexpr double kObsOverheadBudget = 0.05;  ///< max relative cost of obs
constexpr double kSimdSpeedupTarget = 1.2;   ///< min vector-vs-scalar speedup

const char* kCaseKeys[] = {"aircraft_pitch", "vehicle_turning", "series_rlc", "dc_motor",
                           "quadrotor"};

/// Mean ns per call of `fn` over `reps` calls.
template <typename Fn>
double mean_ns(Fn&& fn, int reps) {
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < reps; ++i) bench::do_not_optimize(fn());
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::nano>(stop - start).count() / reps;
}

/// Noise-robust kernel cost: minimum over `batches` batches of the mean ns
/// across `reps` calls of `fn` (interference only ever adds time).
template <typename Fn>
double min_batch_ns(Fn&& fn, int batches, int reps) {
  double best = std::numeric_limits<double>::infinity();
  for (int b = 0; b < batches; ++b) best = std::min(best, mean_ns(fn, reps));
  return best;
}

/// Deterministic pseudo-random doubles in (-1, 1) — no <random> engine so
/// the fixture cost stays trivial and identical across runs.
double lcg_unit(std::uint64_t& s) {
  s = s * 6364136223846793005ULL + 1442695040888963407ULL;
  return static_cast<double>(static_cast<std::int64_t>(s >> 11)) / 9.2e18;
}

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

/// SIMD gate: the matvec and support-walk kernels pinned to the vector set
/// must beat the scalar reference set by at least `target`x at dims 4 and
/// 12 (the residual-norm row is informational — at these dims it is a
/// handful of ops and measurement noise dominates).
/// Skipped (pass) when the host or build resolves to the scalar set: the
/// simd-off CI leg has nothing to compare.
bool simd_speedup_gate(double target) {
  namespace kn = awd::linalg::kernels;
  if (kn::runtime_level() == kn::SimdLevel::kScalar) {
    std::printf("\nsimd speedup gate: SKIP — runtime kernel set is scalar "
                "(compiled %s)\n",
                kn::level_name(kn::compiled_level()));
    return true;
  }
  constexpr int kBatches = 40;
  constexpr int kReps = 4000;
  constexpr std::size_t kWalkSteps = 40;
  std::printf("\nsimd speedup (%s vs scalar, min of %d x %d-call batches):\n",
              kn::level_name(kn::runtime_level()), kBatches, kReps);
  bool ok = true;
  for (const std::size_t n : {std::size_t{4}, std::size_t{12}}) {
    std::uint64_t s = 42;
    linalg::Matrix a(n, n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) a(i, j) = lcg_unit(s);
    }
    kn::GemvPanel panel;
    panel.assign(a);
    std::vector<double> x(n), y(n), residual(n), tau(n, 0.75);
    for (double& v : x) v = lcg_unit(s);
    kn::SupportTable table;
    table.dim = n;
    std::vector<double> rows(n * n), drifts(n, 0.01), spreads(n, 0.1);
    std::vector<double> los(n, -1e12), his(n, 1e12);
    for (std::size_t t = 0; t < kWalkSteps; ++t) {
      for (double& v : rows) v = lcg_unit(s);
      table.push_step(rows.data(), drifts.data(), spreads.data(), los.data(),
                      his.data(), n);
    }
    bool resolved = false;
    const auto matvec = [&] { kn::gemv(panel, x.data(), y.data()); return y[0]; };
    const auto resid = [&] {
      kn::abs_diff(x.data(), y.data(), residual.data(), n);
      return kn::any_abs_exceeds(residual.data(), tau.data(), n);
    };
    const auto walk = [&] { return kn::support_walk(table, x.data(), kWalkSteps, resolved); };
    struct Row {
      const char* name;
      double scalar_ns, simd_ns;
      bool gated;
    };
    (void)kn::force_level(kn::SimdLevel::kScalar);
    Row rowsv[] = {{"matvec", min_batch_ns(matvec, kBatches, kReps), 0.0, true},
                   {"residual_norm", min_batch_ns(resid, kBatches, kReps), 0.0, false},
                   {"support_walk", min_batch_ns(walk, kBatches, kReps), 0.0, true}};
    (void)kn::force_level(kn::runtime_level());
    rowsv[0].simd_ns = min_batch_ns(matvec, kBatches, kReps);
    rowsv[1].simd_ns = min_batch_ns(resid, kBatches, kReps);
    rowsv[2].simd_ns = min_batch_ns(walk, kBatches, kReps);
    for (const Row& r : rowsv) {
      const double speedup = r.simd_ns > 0.0 ? r.scalar_ns / r.simd_ns : 0.0;
      const bool pass = !r.gated || speedup >= target;
      std::printf("  dim %-3zu %-14s scalar %9.2f ns   simd %9.2f ns   %5.2fx  %s\n",
                  n, r.name, r.scalar_ns, r.simd_ns, speedup,
                  r.gated ? (pass ? "ok" : "FAIL") : "(info)");
      ok = ok && pass;
    }
  }
  if (!ok) {
    std::fprintf(stderr, "simd speedup gate: FAIL — below %.2fx target\n", target);
    return false;
  }
  std::printf("simd speedup gate: OK (>= %.2fx)\n", target);
  return true;
}

}  // namespace

int main() {
  const bool obs_ok = obs_overhead_gate(kObsOverheadBudget);
  const bool simd_ok = simd_speedup_gate(kSimdSpeedupTarget);
  return obs_ok && simd_ok ? 0 : 1;
}
