// reach.hpp — box over-approximation of the reachable set (§3.2, §3.4).
//
// For the discrete plant x_{t+1} = A x_t + B u_t + v_t with u_t in a box
// B_U = c + Q·B∞ and ‖v_t‖₂ <= ε, Eq. (2) gives
//     R(x0, t) ⊆ A^t x0 ⊕ Σ_j A^j B B_U ⊕ Σ_k A^k B_ε,
// and evaluating the support function (Eq. 3) along each ± basis direction
// yields the per-dimension bounds of Eq. (4)/(5):
//     upper_i(t) = (A^t x0)_i + Σ_j (A^j B c)_i + Σ_j ‖(A^j B Q)ᵀ e_i‖₁
//                             + Σ_k ε ‖(A^k)ᵀ e_i‖₂.
//
// Everything that does not depend on x0 is precomputed once per
// (model, U, ε, horizon) in the constructor, so the per-step cost of a
// reach-box query is one n x n mat-vec plus O(n) additions — cheap enough
// to run the deadline search every control period (§3's low-overhead
// requirement).
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/power_cache.hpp"
#include "models/lti.hpp"
#include "reach/sets.hpp"

namespace awd::reach {

using linalg::Matrix;

/// Precomputed reachable-set over-approximation machinery for one plant.
class ReachSystem {
 public:
  /// @param model   discrete plant dynamics
  /// @param u_range admissible control-input box (must be bounded)
  /// @param eps     uncertainty ball radius ε >= 0
  /// @param horizon largest step count t the tables cover
  /// Throws std::invalid_argument on dimension mismatch, unbounded u_range,
  /// or eps < 0.
  ReachSystem(models::DiscreteLti model, Box u_range, double eps, std::size_t horizon);

  /// Box over-approximation of R(x0, t) for 0 <= t <= horizon().
  /// Optional `init_radius` treats the initial state as a Euclidean ball of
  /// that radius around x0 (§3.3.1, noisy initial estimate).
  /// Throws std::out_of_range if t > horizon, std::invalid_argument on
  /// dimension mismatch or negative init_radius.
  [[nodiscard]] Box reach_box(const Vec& x0, std::size_t t, double init_radius = 0.0) const;

  /// Support function ρ_R(l) of the over-approximated reachable set at step
  /// t along an arbitrary direction l (Eq. 3), computed from the cached
  /// powers.  Used for validation against the box bounds.
  [[nodiscard]] double support(const Vec& x0, std::size_t t, const Vec& l,
                               double init_radius = 0.0) const;

  [[nodiscard]] std::size_t horizon() const noexcept { return horizon_; }
  [[nodiscard]] const models::DiscreteLti& model() const noexcept { return model_; }
  [[nodiscard]] const Box& input_range() const noexcept { return u_range_; }
  [[nodiscard]] double uncertainty_bound() const noexcept { return eps_; }

  // Read access to the precomputed x0-independent tables (all indexed by
  // step t in [0, horizon]; throw std::out_of_range beyond the horizon).
  // BoxBackend flattens these into its per-step containment
  // cache instead of re-deriving them.

  /// A^t from the power cache.
  [[nodiscard]] const Matrix& a_power(std::size_t t) const { return a_pow_.cached(t); }
  /// Σ_{j<t} A^j B c — x0-independent drift of the reach-box center.
  [[nodiscard]] const Vec& cum_drift(std::size_t t) const { return cum_drift_.at(t); }
  /// Σ_{j<t} ‖(A^j B Q)ᵀ e_i‖₁ per dimension i — input-box spread.
  [[nodiscard]] const Vec& cum_spread(std::size_t t) const { return cum_spread_.at(t); }
  /// Σ_{k<t} ε ‖(A^k)ᵀ e_i‖₂ per dimension i — uncertainty-ball spread.
  [[nodiscard]] const Vec& cum_noise(std::size_t t) const { return cum_noise_.at(t); }
  /// ‖(A^t)ᵀ e_i‖₂ per dimension i — initial-ball scaling factor.
  [[nodiscard]] const Vec& initial_ball_scale(std::size_t t) const {
    return row_norm2_.at(t);
  }

 private:
  models::DiscreteLti model_;
  Box u_range_;
  double eps_;
  std::size_t horizon_;

  // Tables indexed by step t in [0, horizon]:
  linalg::PowerCache a_pow_;       ///< A^t (shared lazy power cache, pre-reserved)
  std::vector<Vec> cum_drift_;     ///< Σ_{j<t} A^j B c         (per dimension)
  std::vector<Vec> cum_spread_;    ///< Σ_{j<t} ‖(A^j B Q)ᵀ e_i‖₁ per dimension i
  std::vector<Vec> cum_noise_;     ///< Σ_{k<t} ε ‖(A^k)ᵀ e_i‖₂  per dimension i
  std::vector<Vec> row_norm2_;     ///< ‖(A^t)ᵀ e_i‖₂ per dimension i (initial-ball term)
};

}  // namespace awd::reach
