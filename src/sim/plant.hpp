// plant.hpp — the physical process being controlled (Eq. 1).
//
// Advances  x_{t+1} = A x_t + B u_t + v_t  with the control input saturated
// to the actuator range U (a box, Table 1) and the uncertainty v_t drawn
// uniformly from the Euclidean ball of radius ε (§3.2.1).
#pragma once

#include "models/lti.hpp"
#include "reach/sets.hpp"
#include "sim/noise.hpp"

namespace awd::sim {

/// Ground-truth plant.  Owns the true state; the controller never sees it
/// directly (only through the sensor path).
class Plant {
 public:
  /// @param model   discrete LTI dynamics
  /// @param u_range actuator saturation box (dimension m)
  /// @param eps     uncertainty ball radius ε >= 0
  /// @param x0      initial true state
  /// Throws std::invalid_argument on dimension mismatches or eps < 0.
  Plant(models::DiscreteLti model, reach::Box u_range, double eps, Vec x0);

  /// Current true state x_t.
  [[nodiscard]] const Vec& state() const noexcept { return x_; }

  /// Saturate `u` to the actuator range, advance one step with fresh
  /// process noise from `rng`, and return the applied (saturated) input.
  Vec step(const Vec& u, Rng& rng);

  /// step() writing the applied (saturated) input into caller-owned
  /// storage.  The value-returning overload delegates here; internal
  /// scratch vectors make the advance allocation-free after the first
  /// call.  The noise-free part A x + B u is model().step_into, the same
  /// prediction the Data Logger and the simulator's records compute.
  /// `u_sat_out` must not alias `u`.
  void step_into(const Vec& u, Rng& rng, Vec& u_sat_out);

  /// Reset the true state for a new run.
  void reset(Vec x0);

  /// Snapshot hooks (core::ckpt): the true state x_t is the plant's only
  /// mutable state — model/range/eps are configuration the restoring side
  /// reconstructs.  deserialize validates the dimension against the model.
  void serialize(core::ckpt::Writer& w) const;
  [[nodiscard]] core::Status deserialize(core::ckpt::Reader& r);

  [[nodiscard]] const models::DiscreteLti& model() const noexcept { return model_; }
  [[nodiscard]] const reach::Box& input_range() const noexcept { return u_range_; }
  [[nodiscard]] double uncertainty_bound() const noexcept { return eps_; }

 private:
  models::DiscreteLti model_;
  reach::Box u_range_;
  double eps_;
  Vec x_;
  // step_into scratch (not logical state; buffers reused across steps).
  Vec next_scratch_;
  Vec mul_scratch_;
  Vec noise_scratch_;
};

}  // namespace awd::sim
