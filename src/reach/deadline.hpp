// deadline.hpp — the box Detection Deadline Estimator backend (§3).
//
// Starting from the latest trustworthy state estimate x0 (the point that
// just left the detection window, §3.3.1), compute the box reach
// over-approximation step by step.  The first step t_d + 1 at which the box
// leaves the safe set marks the deadline t_d (Fig. 2): the system is
// conservatively safe (Def. 3.1) up to and including step t_d, so an attack
// must be flagged within t_d steps.  The search is capped at the maximum
// detection window size w_m (§4.3), which doubles as the "no intersection
// found" answer.
//
// Per-query cost.  The reach recursion (Eq. 3–5) splits into an
// x0-dependent affine part (A^t x0) and x0-independent accumulated
// input/uncertainty boxes.  The constructor flattens the latter — together
// with the fixed init_radius term and the safe-set bounds — into one
// containment check per (step, constrained safe dimension), each holding
// the matching row of A^t (from the ReachSystem's linalg::PowerCache).  A
// query is then a single cached-box walk: per step, one length-n dot
// product and two comparisons per *constrained* dimension, with no box
// construction or allocation.  The arithmetic replicates
// reach_box + Box::contains operation-for-operation, so cached deadlines
// are bit-identical to the uncached reference (estimate_uncached).
//
// BoxBackend is one implementation of the reach::Backend interface
// (reach/backend.hpp); prefer reach::make_backend() to construct backends
// from a BackendSpec.
#pragma once

#include <cstddef>
#include <vector>

#include "core/status.hpp"
#include "reach/backend.hpp"
#include "reach/reach.hpp"

namespace awd::reach {

/// The cached walk's containment checks: per reach step t, one check per
/// constrained safe-set dimension i.  The reach box at step t stays inside
/// [lo, hi] in dimension i iff
///   lo <= center - spread  &&  center + spread <= hi,
/// with center = row·x0 + drift and row the i-th row of A^t.  Checks are
/// stored back to back in step order, each row unpadded and row-major:
/// check k of a step is index off + k, its row rows[(off + k) * dim + j].
struct SupportTable {
  struct Step {
    std::size_t count = 0;  ///< checks at this reach step
    std::size_t off = 0;    ///< index of the step's first check
  };

  std::size_t dim = 0;         ///< x0 length
  std::vector<Step> steps;     ///< index t-1 → checks at reach step t
  std::vector<double> rows;    ///< per check, `dim` coefficients
  std::vector<double> drift;   ///< per check
  std::vector<double> spread;  ///< per check
  std::vector<double> lo;      ///< per check
  std::vector<double> hi;      ///< per check

  /// Open the next reach step, with no checks yet.
  void begin_step() { steps.push_back({0, drift.size()}); }

  /// Append one check (`row` has `dim` entries) to the newest step.
  void add_check(const double* row, double drift_k, double spread_k, double lo_k,
                 double hi_k);
};

/// First reach step t in [1, cap] with a failing containment check:
/// resolved=true and t is returned.  When every step up to cap passes,
/// resolved=false and cap is returned.  Each center sums its row in
/// ascending j, then adds the drift; a NaN center fails its check.  cap
/// must be <= table.steps.size(); x0 has table.dim elements.
std::size_t support_walk(const SupportTable& table, const double* x0, std::size_t cap,
                         bool& resolved) noexcept;

/// Reachability-based detection-deadline estimator on the cached box
/// support-function walk — the paper's construction, and the reference
/// backend the table backend's conservatism is measured against.
class BoxBackend final : public Backend {
 public:
  /// @param model    discrete plant dynamics
  /// @param u_range  admissible control box U (bounded)
  /// @param eps      uncertainty ball radius ε
  /// @param safe_set safe state box S (complement of the unsafe set F);
  ///                 dimensions may be unbounded
  /// Throws std::invalid_argument on dimension mismatches.
  BoxBackend(const models::DiscreteLti& model, Box u_range, double eps, Box safe_set,
             DeadlineConfig config);

  [[nodiscard]] BackendKind kind() const noexcept override { return BackendKind::kBox; }

  /// Reference implementation of estimate() that re-runs the full reach-box
  /// recursion per step instead of the cached walk.  Kept for validation
  /// (cached and uncached deadlines are bit-identical — this is the
  /// soundness oracle of the cross-backend differential); not a hot-path
  /// API.
  [[nodiscard]] std::size_t estimate_uncached(const Vec& x0) const;

  /// True iff R̄(x0, t) stays inside the safe set (conservative safety,
  /// Def. 3.1) — exposed for tests and analysis tooling.
  [[nodiscard]] bool conservatively_safe_at(const Vec& x0, std::size_t t) const;

  [[nodiscard]] const ReachSystem& reach() const noexcept { return reach_; }

  /// The per-step containment checks the cached walk runs on, with each
  /// constrained dimension i's spread at step t widened by
  /// Σ_j |A^t_{i,j}| · half_width[j] (empty = unwidened, the walk's own
  /// table).  A walk over the widened checks at a point c is safe only if
  /// the unwidened walk is safe everywhere in the box c ± half_width — the
  /// deadline table's per-cell conservatism (reach/table.hpp).
  [[nodiscard]] SupportTable widened_table(
      const std::vector<double>& half_width) const;

 private:
  [[nodiscard]] std::size_t walk_(const Vec& x0, std::size_t cap,
                                  bool& resolved) const noexcept override;

  ReachSystem reach_;
  /// [t-1] → x0-independent per-dim spread at step t (full state dimension).
  std::vector<Vec> spreads_;
  SupportTable table_;  ///< step t-1 → constrained-dim checks
};

}  // namespace awd::reach
