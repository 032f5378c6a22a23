// witness.hpp — worst-case witness trajectories for the box deadline (§3).
//
// For a box safe set the per-dimension bounds of Eq. 4/5 are exact support
// functions of the reachable set, so each bound is attained by one concrete
// admissible trajectory.  For side s (+1 upper, -1 lower) of dimension i at
// step T, with r_k = (A^k)ᵀ e_i:
//   * start at the initial-ball point x0 + r·s·r_T / ‖r_T‖₂;
//   * apply at step k the vertex of U that maximises s·e_iᵀ A^{T-1-k} B u;
//   * add the noise ε·s·r_{T-1-k} / ‖r_{T-1-k}‖₂.
// Its inputs lie in U, its noise in the ε-ball and its start in the initial
// ball, so it stays in S for as long as the reach box does; and it attains
// the bound at T, so it leaves S at the first step the reach box does.  A
// deadline t_d < w_m is therefore exact iff the witness for the reach box's
// failing side at t_d + 1 stays in S through t_d and leaves it at t_d + 1:
// leaving earlier proves the deadline unsound, never leaving proves it too
// conservative.  The witness is stepped through the plant's own arithmetic
// (DiscreteLti::step), independently of the cached reach terms.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "linalg/vec.hpp"
#include "models/lti.hpp"
#include "reach/deadline.hpp"
#include "reach/sets.hpp"

namespace awd::testkit {

/// The witness x_0 .. x_T attaining side `side` (+1 / -1) of dimension `dim`
/// of the reach box at step T, from the ball of radius `init_radius` around
/// x0 under inputs in `u_range` and noise of norm at most `eps`.
[[nodiscard]] std::vector<linalg::Vec> worst_case_witness(
    const models::DiscreteLti& model, const reach::Box& u_range, double eps,
    const linalg::Vec& x0, double init_radius, std::size_t T, std::size_t dim, int side);

/// One probe's verdict.  `side` is 0 when there was nothing to witness
/// (t_d = w_m) or when the reach box at t_d + 1 has no failing side.
struct WitnessVerdict {
  std::size_t deadline = 0;  ///< the backend's t_d at the probe
  std::size_t max_window = 0;
  std::size_t dim = 0;       ///< failing dimension of the reach box at t_d + 1
  int side = 0;              ///< its failing side (+1 upper, -1 lower)
  std::size_t left_at = 0;   ///< first step 1..t_d + 1 the witness is outside S (0: never)

  /// t_d = w_m, or the witness leaves S at exactly t_d + 1.
  [[nodiscard]] bool exact() const noexcept {
    return deadline >= max_window || (side != 0 && left_at == deadline + 1);
  }
  /// What went wrong ("exact" when nothing did).
  [[nodiscard]] std::string describe() const;
};

/// Check the backend's deadline at x0 against the witness for the reach
/// box's failing side at t_d + 1 (the side with the largest violation).
[[nodiscard]] WitnessVerdict check_deadline_witness(const reach::BoxBackend& backend,
                                                    const linalg::Vec& x0);

}  // namespace awd::testkit
