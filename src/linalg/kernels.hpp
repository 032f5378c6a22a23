// kernels.hpp — the detector's hot-path kernels (DESIGN.md §14).
//
// The detector's per-step cost is a handful of tiny dense kernels: the
// matvec behind every prediction (x̃ = A x̄ + B u), the |z| residual, the
// window-mean accumulation, the τ threshold test, and the deadline
// estimator's box support-function walk.  This header is their single
// implementation point: one scalar set, called directly.  On plants with
// 1–12 states a vector unit buys nothing measurable end to end (DESIGN.md
// §14 has the numbers).
//
// Every kernel keeps the scalar operation order documented below (row sums
// in ascending column order, mul then add, never fused), which is what the
// committed trace, checkpoint and dump pins were produced with.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace awd::linalg {

class Matrix;

namespace kernels {

/// The kernel set in play.  There is only the scalar one; this stub and the
/// three functions below remain because perfbench's host record reports
/// them (its simd_active/simd_compiled fields read "scalar").
enum class SimdLevel : std::uint8_t { kScalar = 0 };

/// Human-readable level name: always "scalar".
[[nodiscard]] constexpr const char* level_name(SimdLevel) noexcept { return "scalar"; }

/// Kernel set compiled into this binary: always kScalar.
[[nodiscard]] constexpr SimdLevel compiled_level() noexcept { return SimdLevel::kScalar; }

/// Kernel set the kernels run: always kScalar.
[[nodiscard]] constexpr SimdLevel active_level() noexcept { return SimdLevel::kScalar; }

// --- batch views ------------------------------------------------------------

/// Column-major, row-padded copy of a row-major Matrix: column j holds
/// A(0..rows-1, j) followed by zero padding up to `padded`.  Panels are
/// derived data (rebuilt from the Matrix on assign), never checkpointed.
struct GemvPanel {
  std::size_t rows = 0;    ///< output dimension
  std::size_t cols = 0;    ///< input dimension
  std::size_t padded = 0;  ///< rows rounded up to kPanelPad
  std::vector<double> data;  ///< data[j * padded + i] = A(i, j)

  /// Row padding of every panel and support-table step.
  static constexpr std::size_t kPanelPad = 4;

  /// (Re)build from a row-major matrix, reusing the buffer when possible.
  void assign(const Matrix& a);

  [[nodiscard]] bool empty() const noexcept { return rows == 0; }
};

/// Precomputed box support-function walk: per reach step, a padded group of
/// containment checks (one per constrained safe-set dimension).  The reach
/// box at step t stays inside [lo, hi] iff
///   lo <= center - spread  &&  center + spread <= hi,
/// with center = row·x0 + drift.  Rows are stored column-major per step
/// (rows[row_off + j * padded + k] = row k's j-th coefficient).  Padded
/// lanes hold row 0, drift 0, spread 0, lo -inf, hi +inf — they always pass
/// and can never resolve the walk.
struct SupportTable {
  struct Step {
    std::size_t count = 0;       ///< live checks at this reach step
    std::size_t padded = 0;      ///< count rounded up to GemvPanel::kPanelPad
    std::size_t scalar_off = 0;  ///< segment start in drift/spread/lo/hi
    std::size_t row_off = 0;     ///< segment start in rows
  };

  std::size_t dim = 0;          ///< x0 length
  std::vector<Step> steps;      ///< index t-1 → checks at reach step t
  std::vector<double> drift;    ///< padded per-step segments
  std::vector<double> spread;
  std::vector<double> lo;
  std::vector<double> hi;
  std::vector<double> rows;     ///< per-step column-major row panels

  void clear() noexcept;

  /// Append one reach step's checks.  `row_major_rows` holds `count` rows of
  /// length `dim` back to back (row-major); the table transposes and pads.
  void push_step(const double* row_major_rows, const double* drifts,
                 const double* spreads, const double* los, const double* his,
                 std::size_t count);
};

// --- kernels ----------------------------------------------------------------

/// y = A x over a panel: y[i] = Σ_j A(i,j) x[j], accumulating j in
/// ascending order per row — the exact Matrix::mul_into sum order.  `x` has
/// a.cols elements, `y` a.rows; neither may alias the panel, and y must not
/// alias x.
void gemv(const GemvPanel& a, const double* x, double* y) noexcept;

/// out[i] = |a[i] - b[i]| — the residual z = |x̃ - x̄|.  `out` may alias
/// `a` or `b`.
void abs_diff(const double* a, const double* b, double* out, std::size_t n) noexcept;

/// out[i] += a[i] — window-mean accumulation.  `out` may alias `a`.
void add_assign(double* out, const double* a, std::size_t n) noexcept;

/// out[i] -= a[i].  `out` may alias `a`.
void sub_assign(double* out, const double* a, std::size_t n) noexcept;

/// True iff any |z[i]| > tau[i] — the §4.1 per-dimension alarm test.  NaN
/// never exceeds (ordered compare).
[[nodiscard]] bool any_abs_exceeds(const double* z, const double* tau,
                                   std::size_t n) noexcept;

/// First reach step t in [1, cap] with a failing containment check:
/// resolved=true and t is returned.  When every step up to cap passes,
/// resolved=false and cap is returned.  cap must be <= table.steps.size();
/// x0 has table.dim elements.
std::size_t support_walk(const SupportTable& table, const double* x0,
                         std::size_t cap, bool& resolved) noexcept;

}  // namespace kernels
}  // namespace awd::linalg
