// bench_ablation — design-choice ablations (extension; DESIGN.md §6).
//
// Three studies quantify the design decisions the paper makes:
//   A. Complementary detection ON vs OFF (§4.2.1) — without the sweeps,
//      spikes that were logged under a long window escape when the
//      deadline collapses.  Measured as the detection rate of a synthetic
//      escaped-spike workload and on the real aircraft simulator.
//   B. Reachability-bound conservatism — scaling the estimator's ε_reach
//      trades deadline tightness (and thus adaptive FP) against guarantee
//      margin.
//   C. Initial-state ball radius (§3.3.1) — treating the trusted seed as a
//      noisy set rather than a point.
// The paper's box reach set needs no ablation against a tighter set
// representation: for a box safe set its per-dimension bounds are exact
// (tests/reach/deadline_witness_test.cpp).
#include <cstdio>

#include "bench_util.hpp"
#include "core/detection_system.hpp"
#include "core/metrics.hpp"
#include "detect/adaptive.hpp"
#include "obs/obs.hpp"
#include "reach/deadline.hpp"

namespace {

using namespace awd;

// --- A: complementary detection --------------------------------------------

models::DiscreteLti identity_model() {
  models::DiscreteLti m;
  m.A = linalg::Matrix{{1.0}};
  m.B = linalg::Matrix{{0.0}};
  m.dt = 1.0;
  m.name = "identity";
  return m;
}

/// Synthetic escaped-spike workload: residual spike at `spike_at`, window
/// collapses from 10 to 2 a few steps later.  Returns whether any alarm
/// fired.
bool escaped_spike_detected(bool complementary, std::size_t spike_at) {
  const std::size_t w_m = 12;
  detect::DataLogger log(identity_model(), w_m);
  detect::AdaptiveDetector det(linalg::Vec{0.3}, w_m, complementary);
  double est = 0.0;
  bool detected = false;
  for (std::size_t t = 0; t < 60; ++t) {
    if (t == spike_at) est += 1.0;
    (void)log.log(t, linalg::Vec{est}, linalg::Vec{0.0});
    // Deadline collapses periodically (as near the sinusoid peaks in the
    // real experiments).
    const std::size_t deadline = (t % 8 == 7) ? 2 : 10;
    if (det.step(log, t, deadline).any_alarm()) detected = true;
  }
  return detected;
}

void ablation_complementary() {
  bench::subheading("A. Complementary detection (§4.2.1) on/off");
  int with_on = 0, with_off = 0, total = 0;
  for (std::size_t spike_at = 15; spike_at < 55; ++spike_at) {
    ++total;
    if (escaped_spike_detected(true, spike_at)) ++with_on;
    if (escaped_spike_detected(false, spike_at)) ++with_off;
  }
  std::printf("  synthetic escaped-spike workload (%d spike positions):\n", total);
  std::printf("    detected with complementary sweeps:    %3d / %d\n", with_on, total);
  std::printf("    detected without complementary sweeps: %3d / %d\n", with_off, total);
  std::printf("  -> the sweeps close the escape window the shrink protocol opens\n");
}

// --- B/C: estimator conservatism -------------------------------------------

void ablation_conservatism() {
  bench::subheading("B. Reachability-bound conservatism (eps_reach multiplier)");
  const core::SimulatorCase scase = core::simulator_case("aircraft_pitch");
  std::printf("  %10s %16s\n", "multiplier", "deadline @ ref");
  for (double mult : {0.5, 1.0, 2.0, 4.0, 8.0}) {
    const reach::BoxBackend est(scase.model, scase.u_range,
                                scase.eps_reach * mult, scase.safe_set,
                                reach::DeadlineConfig{scase.max_window});
    std::printf("  %10.1f %16zu\n", mult, est.estimate(scase.reference));
  }
  std::printf("  -> a more conservative bound shortens every deadline, shrinking\n");
  std::printf("     the windows the adaptive detector gets to use\n");

  bench::subheading("C. Initial-state ball radius (§3.3.1)");
  std::printf("  %10s %16s\n", "radius", "deadline @ ref");
  for (double r0 : {0.0, 0.01, 0.05, 0.1, 0.2}) {
    const reach::BoxBackend est(scase.model, scase.u_range, scase.eps_reach,
                                scase.safe_set,
                                reach::DeadlineConfig{scase.max_window, r0});
    std::printf("  %10.2f %16zu\n", r0, est.estimate(scase.reference));
  }
}

}  // namespace

int main(int argc, char** argv) {
  const awd::obs::ObsSession obs_session(argc, argv);
  bench::heading("Ablations — design choices of the detection system");
  ablation_complementary();
  ablation_conservatism();
  return 0;
}
