// zonotope.hpp — zonotope reachability (extension).
//
// The paper over-approximates the reachable set by a box per dimension
// (Eq. 4/5), which is cheap but discards cross-dimension correlations.
// Zonotopes — affine images of unit cubes, Z = c ⊕ Σ_i g_i·[-1,1] — are
// closed under exactly the two operations reachability needs (linear maps
// and Minkowski sums), so they track those correlations exactly; only the
// disturbance ball is relaxed to its bounding box.  This module implements
// the classic zonotope propagation with Girard order reduction, plus a
// deadline estimator with the same interface as reach::BoxBackend,
// so `bench_ablation` can quantify what the paper's box simplification
// costs in deadline tightness.
//
// Reference: C. Le Guernic, "Reachability Analysis of Hybrid Systems with
// Linear Continuous Dynamics" (the paper's [5]); A. Girard, "Reachability
// of Uncertain Linear Systems Using Zonotopes", HSCC 2005.
#pragma once

#include <cstddef>
#include <vector>

#include "models/lti.hpp"
#include "reach/sets.hpp"

namespace awd::reach {

using linalg::Matrix;

/// Zonotope Z = center ⊕ Σ_i generators.col(i) · [-1, 1].
class Zonotope {
 public:
  Zonotope() = default;

  /// Zonotope from center and generator matrix (n x k, k >= 0).
  /// Throws std::invalid_argument on a row-count mismatch.
  Zonotope(Vec center, Matrix generators);

  /// Degenerate zonotope {point}.
  [[nodiscard]] static Zonotope point(Vec center);

  /// Axis-aligned box as a zonotope (box must be bounded).
  [[nodiscard]] static Zonotope from_box(const Box& box);

  [[nodiscard]] std::size_t dim() const noexcept { return center_.size(); }
  [[nodiscard]] std::size_t order() const noexcept {
    return generators_.cols();  // generator count (order * dim in the literature)
  }
  [[nodiscard]] const Vec& center() const noexcept { return center_; }
  [[nodiscard]] const Matrix& generators() const noexcept { return generators_; }

  /// Linear image M·Z.
  [[nodiscard]] Zonotope linear_map(const Matrix& m) const;

  /// Minkowski sum Z ⊕ other (generator concatenation).
  [[nodiscard]] Zonotope minkowski_sum(const Zonotope& other) const;

  /// Support function ρ_Z(l) = lᵀc + Σ_i |lᵀ g_i|.
  [[nodiscard]] double support(const Vec& l) const;

  /// Tight interval hull (the smallest enclosing box).
  [[nodiscard]] Box interval_hull() const;

  /// Girard order reduction: if more than `max_generators` generators,
  /// replace the smallest ones (by 1-norm) with their bounding box —
  /// sound over-approximation, bounded memory.
  [[nodiscard]] Zonotope reduced(std::size_t max_generators) const;

  /// Membership is NP-hard in general; containment of a sample is checked
  /// through the support function along the coordinate axes (necessary
  /// condition) — sufficient for the interval hull, used by tests.
  [[nodiscard]] bool hull_contains(const Vec& x) const;

 private:
  Vec center_;
  Matrix generators_;  // n x k
};

/// Step-wise zonotope reachability for x_{t+1} = A x_t + B u_t + v_t with
/// u in a box and ‖v‖₂ <= eps (relaxed to its bounding box).
class ZonotopeReach {
 public:
  /// Throws std::invalid_argument on dimension mismatch / unbounded input
  /// set / negative eps.
  ZonotopeReach(models::DiscreteLti model, Box u_range, double eps,
                std::size_t max_generators = 64);

  /// Reachable zonotope after t steps from the point x0 (computed
  /// iteratively; cost O(t) zonotope steps).
  [[nodiscard]] Zonotope reach(const Vec& x0, std::size_t t) const;

  /// Interval hull of reach(x0, t) — directly comparable to
  /// ReachSystem::reach_box.
  [[nodiscard]] Box reach_box(const Vec& x0, std::size_t t) const;

  /// One propagation step: A·Z ⊕ B·U ⊕ box(B_eps), order-reduced.
  [[nodiscard]] Zonotope step(const Zonotope& z) const;

 private:
  models::DiscreteLti model_;
  Zonotope input_term_;  // B·U as a zonotope
  Zonotope noise_term_;  // bounding box of the eps ball
  std::size_t max_generators_;
};

/// Deadline estimator backed by zonotope reachability (same semantics as
/// reach::BoxBackend; tighter sets can only lengthen the deadline).
class ZonotopeDeadlineEstimator {
 public:
  ZonotopeDeadlineEstimator(const models::DiscreteLti& model, Box u_range, double eps,
                            Box safe_set, std::size_t max_window,
                            std::size_t max_generators = 64);

  /// Deadline t_d in [0, max_window].
  [[nodiscard]] std::size_t estimate(const Vec& x0) const;

 private:
  ZonotopeReach reach_;
  Box safe_;
  std::size_t max_window_;
};

}  // namespace awd::reach
