#include "core/calibration.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "sim/noise.hpp"

namespace awd::core {

Vec calibrate_threshold(const SimulatorCase& scase, std::uint64_t seed,
                        const ThresholdCalibrationOptions& options) {
  if (options.quantile <= 0.0 || options.quantile > 1.0) {
    throw std::invalid_argument("calibrate_threshold: quantile must be in (0, 1]");
  }
  if (options.runs == 0) throw std::invalid_argument("calibrate_threshold: zero runs");

  const std::size_t n = scase.model.state_dim();
  std::vector<std::vector<double>> samples(n);

  for (std::size_t r = 0; r < options.runs; ++r) {
    sim::Simulator simulator =
        scase.make_simulator(AttackKind::kNone, sim::splitmix64(seed + 0xca11b0a7ULL + r));
    for (std::size_t t = 0; t < scase.steps; ++t) {
      const sim::StepRecord rec = simulator.step();
      if (t < options.warmup) continue;
      for (std::size_t d = 0; d < n; ++d) samples[d].push_back(rec.residual[d]);
    }
  }

  Vec tau(n);
  for (std::size_t d = 0; d < n; ++d) {
    auto& s = samples[d];
    if (s.empty()) throw std::invalid_argument("calibrate_threshold: no samples collected");
    std::sort(s.begin(), s.end());
    const std::size_t idx = std::min(
        s.size() - 1,
        static_cast<std::size_t>(std::ceil(options.quantile * static_cast<double>(s.size())) -
                                 1));
    tau[d] = s[idx] * options.margin;
  }
  return tau;
}

MaxWindowProfile profile_max_window(const SimulatorCase& scase, AttackKind attack,
                                    std::uint64_t seed, const MaxWindowOptions& options) {
  std::vector<std::size_t> windows;
  for (std::size_t w = 0; w <= options.window_limit; w += options.window_stride) {
    windows.push_back(w);
  }
  MaxWindowProfile profile;
  Result<std::vector<WindowSweepPoint>> sweep =
      fixed_window_sweep({.scase = scase,
                          .attack = attack,
                          .windows = windows,
                          .runs = options.runs,
                          .base_seed = seed,
                          .metrics = options.metrics,
                          .threads = options.threads});
  if (!sweep.is_ok()) {
    throw std::invalid_argument("profile_max_window: " +
                                std::string(sweep.status().message()));
  }
  profile.sweep = std::move(sweep).value();

  // FN grows with the window; take the largest window still within
  // tolerance (the "cutting line" of §4.3).
  profile.max_window = windows.front();
  for (const WindowSweepPoint& p : profile.sweep) {
    if (p.fn_experiments <= options.fn_tolerance) {
      profile.max_window = std::max(profile.max_window, p.window);
    }
  }
  return profile;
}

}  // namespace awd::core
