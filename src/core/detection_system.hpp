// detection_system.hpp — the paper's full run-time architecture (Fig. 1).
//
// Composes the closed-loop Simulator with the three shaded components:
// Data Logger (§5), Detection Deadline Estimator (§3), and Adaptive
// Detector (§4), plus the fixed-window baseline evaluated on the same
// residual stream for side-by-side comparison (the paper's Table 2 /
// Fig. 6 methodology — detection is passive, so one simulation serves
// both strategies).
//
// Per control step t:
//   1. the Simulator advances the loop and yields (x̄_t, u_t, ...),
//   2. the Data Logger buffers the estimate/residual,
//   3. the trusted seed x̄_{t - w_p - 1} (just outside the previous
//      detection window) feeds the Deadline Estimator → t_d,
//   4. the Adaptive Detector sets w_c = min(t_d, w_m), runs complementary
//      sweeps if the window shrank, and evaluates the window test,
//   5. the fixed-window baseline evaluates at its constant size.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "core/ckpt.hpp"
#include "core/config.hpp"
#include "core/status.hpp"
#include "detect/adaptive.hpp"
#include "detect/fixed.hpp"
#include "detect/logger.hpp"
#include "fault/fault.hpp"
#include "fault/health.hpp"
#include "reach/backend.hpp"
#include "sim/simulator.hpp"

namespace awd::core {

/// Optional knobs beyond what the SimulatorCase prescribes.
struct DetectionSystemOptions {
  std::optional<std::size_t> fixed_window;  ///< override the baseline window
  double init_radius = 0.0;                 ///< deadline seed ball radius (§3.3.1)

  /// Deterministic fault schedule for the run.  An empty plan constructs no
  /// injector at all, so nominal runs are bit-identical to the unhardened
  /// pipeline.
  fault::FaultPlan fault_plan;
  /// Degradation state-machine thresholds (NOMINAL→DEGRADED→FAILSAFE).
  fault::HealthConfig health;
  /// Real-time budget for each deadline search, in reach-box queries
  /// (0 = unlimited).  Exhaustion triggers the deadline-decay fallback.
  std::size_t deadline_budget = 0;

  /// Reuse an already-built deadline backend instead of constructing one
  /// (construction flattens the reach recursion into per-step tables — or
  /// runs the table precompute — the dominant setup cost).  The backend's
  /// query API is const, so many systems of the same plant family can share
  /// one instance (serve::StreamEngine's per-family cache).  create()
  /// rejects a backend whose config fingerprint disagrees with the case's
  /// reach::BackendSpec; when empty, create() builds one through
  /// reach::make_backend(make_backend_spec(scase, ...)).
  std::shared_ptr<const reach::Backend> shared_deadline_estimator;

  /// Forwarded to sim::SimulatorOptions::lean_records: skip the record-only
  /// prediction/residual fields of each StepRecord.  Detection outputs stay
  /// bit-identical (the DataLogger recomputes both internally).
  bool lean_records = false;

  /// When false, step() skips its per-stage StageClock marks (the five
  /// pipeline span timers).  Counters still count.  Serving paths and
  /// core::run_batch turn this off; the detection outputs are unaffected
  /// either way.
  bool per_step_obs = true;
};

/// One fully wired detection run over one plant/attack/seed combination.
class DetectionSystem {
 public:
  /// Non-throwing factory: assemble plant, controller, attack, logger,
  /// estimator and detectors from a case description.  Returns
  /// kInvalidInput (with the first violation's message) instead of
  /// throwing — the serving path's only construction entry point
  /// (serve::StreamEngine), where one bad stream spec must not unwind the
  /// engine.
  [[nodiscard]] static Result<DetectionSystem> create(const SimulatorCase& scase,
                                                      AttackKind attack,
                                                      std::uint64_t seed,
                                                      DetectionSystemOptions options = {});

  /// Throwing convenience constructor; delegates to create() and raises
  /// std::invalid_argument on an invalid case (the case key prefixed to
  /// the first violation, as SimulatorCase::validate reports it).
  DetectionSystem(const SimulatorCase& scase, AttackKind attack, std::uint64_t seed,
                  DetectionSystemOptions options = {});

  /// Advance one control period through the full pipeline; the returned
  /// record carries the detection outputs (deadline, window, alarms).
  sim::StepRecord step();

  /// step() into a caller-owned record whose vectors are reused across
  /// steps — the allocation-free serving entry point (serve::StreamEngine).
  /// Single implementation: step() delegates here, so records are
  /// bit-identical either way.
  void step_into(sim::StepRecord& rec);

  /// Run the case's configured number of steps (or `steps` if nonzero).
  [[nodiscard]] sim::Trace run(std::size_t steps = 0);

  /// Total window evaluations performed by the adaptive detector so far
  /// (current-step tests + complementary sweeps) — the overhead metric.
  [[nodiscard]] std::size_t adaptive_evaluations() const noexcept { return evaluations_; }

  [[nodiscard]] const detect::DataLogger& logger() const noexcept { return logger_; }
  /// The deadline backend serving this run (reach/backend.hpp; kind() and
  /// name() attribute it in obs/forensics output).
  [[nodiscard]] const reach::Backend& estimator() const noexcept { return *estimator_; }

  /// The deadline backend as a shareable handle — pass it to another
  /// system's options (shared_deadline_estimator) to amortize its
  /// construction across a plant family.
  [[nodiscard]] std::shared_ptr<const reach::Backend> estimator_handle() const noexcept {
    return estimator_;
  }
  [[nodiscard]] const SimulatorCase& scase() const noexcept { return case_; }

  /// Degradation state machine driven by this run (NOMINAL when no fault
  /// plan is configured and nothing ever degraded).
  [[nodiscard]] const fault::HealthMonitor& health() const noexcept { return health_; }

  /// The run's fault injector, or nullptr for a nominal run.
  [[nodiscard]] const fault::FaultInjector* faults() const noexcept { return faults_.get(); }

  /// Snapshot hooks (core::ckpt): the composed mutable state of the whole
  /// pipeline — simulator (plant/RNG/controller/estimator), logger ring,
  /// both detectors, health machine, fault injector, and the deadline
  /// bookkeeping.  deserialize is applied to a system freshly created from
  /// the same (case, attack, seed, options) and validates configuration
  /// agreement section by section; on error the system's state is
  /// unspecified and the instance must be discarded.  The shareable
  /// deadline backend is deliberately not serialized: its tables are a
  /// pure function of the case, so the restoring side rebuilds (or shares)
  /// an identical instance.
  void serialize(ckpt::Writer& w) const;
  [[nodiscard]] Status deserialize(ckpt::Reader& r);

 private:
  /// Tag selecting the assembling constructor (create() runs the checks
  /// first; the tag keeps it from colliding with the throwing overload).
  struct AssembleTag {};
  DetectionSystem(AssembleTag, const SimulatorCase& scase, AttackKind attack,
                  std::uint64_t seed, DetectionSystemOptions options);

  SimulatorCase case_;
  std::shared_ptr<fault::FaultInjector> faults_;  ///< before simulator_: init order
  sim::Simulator simulator_;
  detect::DataLogger logger_;
  std::shared_ptr<const reach::Backend> estimator_;  ///< shareable, never null
  detect::AdaptiveDetector adaptive_;
  detect::FixedWindowDetector fixed_;
  fault::HealthMonitor health_;
  bool per_step_obs_ = true;
  std::size_t evaluations_ = 0;
  std::size_t last_valid_deadline_ = 0;  ///< most recent non-fallback deadline
  std::size_t fallback_steps_ = 0;       ///< consecutive deadline fallbacks so far
  // step_into scratch (not logical state; buffers reused across steps).
  detect::AdaptiveDecision adaptive_scratch_;
  detect::WindowDecision fixed_scratch_;
};

}  // namespace awd::core
