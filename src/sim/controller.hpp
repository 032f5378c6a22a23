// controller.hpp — control-law interface for the closed loop.
//
// §2's system model: at each control step the controller maps the state
// estimate x̄_t (and the reference) to a control input u_t.  The concrete
// law lives in pid.hpp; the simulator only sees this interface.
#pragma once

#include <memory>

#include "core/ckpt.hpp"
#include "linalg/vec.hpp"

namespace awd::sim {

using linalg::Vec;

/// Stateful control law.  compute() is called exactly once per control
/// period, in time order; implementations may keep integrator/derivative
/// state between calls.
class Controller {
 public:
  virtual ~Controller() = default;

  /// Control input for the current step given the (possibly attacked)
  /// state estimate and the reference state.
  [[nodiscard]] virtual Vec compute(const Vec& estimate, const Vec& reference) = 0;

  /// compute() into caller-owned storage.  The default adapts compute();
  /// stateful laws on the hot path (PID) override it with an
  /// allocation-free body that compute() then delegates to, so both entry
  /// points share one arithmetic implementation.  Like compute(), advances
  /// internal state — call exactly once per control period.
  virtual void compute_into(const Vec& estimate, const Vec& reference, Vec& out) {
    out = compute(estimate, reference);
  }

  /// Clear internal state (integrators, previous error) for a fresh run.
  virtual void reset() = 0;

  /// Deep copy, so a configured controller can serve as a prototype for
  /// Monte-Carlo experiment runs.
  [[nodiscard]] virtual std::unique_ptr<Controller> clone() const = 0;

  /// Snapshot hooks (core::ckpt).  Each implementation writes a one-byte
  /// state tag followed by its mutable state; restore_state is called on an
  /// already-configured controller of the same concrete type and rejects a
  /// foreign tag with kDataLoss.
  virtual void serialize_state(core::ckpt::Writer& w) const = 0;
  [[nodiscard]] virtual core::Status restore_state(core::ckpt::Reader& r) = 0;
};

}  // namespace awd::sim
