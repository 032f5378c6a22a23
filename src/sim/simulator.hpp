// simulator.hpp — the closed control loop of §2 (Fig. 1, unshaded part).
//
// Per control step t:
//   1. the sensor measures the true state (plus bounded sensor noise),
//   2. the attack (if any) transforms what the controller sees,
//   3. the state estimate x̄_t is formed (fully observable system:
//      the estimate is the received measurement),
//   4. the Data-Logger prediction x̃_t = A x̄_{t-1} + B u_{t-1} and the
//      residual z_t = |x̃_t - x̄_t| are computed,
//   5. the controller produces u_t, the actuator saturates it to U,
//   6. the plant advances with process uncertainty v_t ∈ B_ε.
//
// The simulator exposes one step at a time so that the detection system
// (core::DetectionSystem) can interleave deadline estimation and detection
// with the loop, exactly as the paper's run-time architecture does.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "attack/attack.hpp"
#include "fault/fault.hpp"
#include "sim/controller.hpp"
#include "sim/estimator.hpp"
#include "sim/plant.hpp"
#include "sim/trace.hpp"

namespace awd::sim {

/// One sinusoidal component of the reference trajectory.
struct ReferenceSine {
  std::size_t dim = 0;        ///< state dimension it modulates
  double amplitude = 0.0;     ///< peak deviation from the base setpoint
  double period_steps = 100;  ///< period in control steps (> 0)
};

/// Everything needed to run a closed loop, minus detection.
struct SimulatorOptions {
  Vec x0;                 ///< initial true state
  Vec reference;          ///< reference (setpoint) state
  Vec sensor_noise;       ///< per-dimension sensor noise bound (box)
  std::uint64_t seed = 0; ///< run seed (process + sensor noise)

  /// Setpoint changes: at each (step, value) pair the reference switches to
  /// `value`.  Must be sorted by step.  Real missions change setpoints; an
  /// attack that merely freezes or replays measurements only becomes
  /// observable when the loop has transient content to corrupt.
  std::vector<std::pair<std::size_t, Vec>> reference_schedule;

  /// Sinusoidal reference components added on top of the (scheduled)
  /// setpoint: ref[dim] += amplitude * sin(2π t / period_steps).  Smooth
  /// periodic maneuvering — an AC setpoint for a circuit, gentle pitching
  /// for an aircraft — that gives delay and replay attacks live content to
  /// corrupt without ever kicking the actuators into saturation.
  std::vector<ReferenceSine> reference_sinusoids;

  /// When true, the one-step prediction x̃ uses the controller's *commanded*
  /// input; when false (default) it uses the *applied* (saturated) input.
  /// A detector co-located with the controller often only sees the command,
  /// so actuator saturation becomes model mismatch and shows up in the
  /// residual — the situation on the paper's RC-car testbed (§6.2).
  bool predict_with_commanded = false;

  /// Deterministic fault injector perturbing the sensor path (dropout,
  /// NaN/Inf corruption, stuck-at-last, burst loss).  Null means no faults.
  /// Shared so the DetectionSystem can read the same injector's counters
  /// and deadline-budget schedule.  Injection never consumes RNG draws, so
  /// an empty plan is bit-identical to no injector at all.
  std::shared_ptr<fault::FaultInjector> faults;

  /// Skip the record-only prediction/residual fields of each StepRecord
  /// (left empty).  The closed loop, the RNG stream, and every detection
  /// output are unaffected — the DataLogger recomputes its own
  /// prediction/residual independently — so a lean run's alarms and
  /// deadlines are bit-identical to a full run's.  Serving-path knob
  /// (serve::StreamEngine): drops a prediction and a residual per step
  /// that nothing on the hot path reads.
  bool lean_records = false;
};

/// Step-at-a-time closed-loop simulator.
class Simulator {
 public:
  /// @param plant       plant (moved in; owns the true state)
  /// @param controller  control law (owned)
  /// @param attack      sensor attack; shared because attacks are immutable
  /// @param opts        run options
  /// Throws std::invalid_argument on dimension mismatches.
  Simulator(Plant plant, std::unique_ptr<Controller> controller,
            std::shared_ptr<const attack::Attack> attack, SimulatorOptions opts);

  /// Execute one control period and return the resulting record
  /// (detection fields left at defaults).
  StepRecord step();

  /// step() into a caller-owned record whose vectors are reused across
  /// steps — with the simulator's internal scratch, the control period is
  /// allocation-free after the first call (except the clean-history append
  /// for history-reading attacks).  Single implementation: step()
  /// delegates here, so records are bit-identical either way.  Detection
  /// fields are left untouched.
  void step_into(StepRecord& rec);

  /// Run `steps` periods from scratch and collect the trace.
  [[nodiscard]] Trace run(std::size_t steps);

  /// Control step that executes next.
  [[nodiscard]] std::size_t now() const noexcept { return t_; }

  /// Snapshot hooks (core::ckpt): step counter, active reference and
  /// schedule cursor, previous estimate/control, the clean-measurement
  /// history (replay/delay attacks), the plant state, the RNG position, the
  /// controller state via its virtual hooks and the estimator's state tag.
  /// deserialize is applied to a freshly constructed Simulator of the same
  /// configuration and validates dimensions and history length against it.
  void serialize(core::ckpt::Writer& w) const;
  [[nodiscard]] core::Status deserialize(core::ckpt::Reader& r);

  [[nodiscard]] const Plant& plant() const noexcept { return plant_; }
  [[nodiscard]] const attack::Attack& attack() const noexcept { return *attack_; }

 private:
  Plant plant_;
  std::unique_ptr<Controller> controller_;
  Estimator estimator_;
  std::shared_ptr<const attack::Attack> attack_;
  SimulatorOptions opts_;
  Rng rng_;

  std::size_t t_ = 0;
  Vec reference_;              ///< active setpoint (follows the schedule)
  std::size_t next_ref_ = 0;   ///< next reference_schedule entry to apply
  Vec prev_estimate_;          ///< x̄_{t-1}
  Vec prev_control_;           ///< u_{t-1}
  std::vector<Vec> clean_measurements_;  ///< clean history for replay/delay attacks
  bool record_history_ = true;           ///< false when the attack never reads it

  // step_into scratch (not logical state; buffers reused across steps).
  Vec noise_scratch_;
  Vec clean_scratch_;
  Vec ref_scratch_;
  Vec mul_scratch_;
  std::optional<Vec> delivered_scratch_;
};

}  // namespace awd::sim
