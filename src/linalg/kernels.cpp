// kernels.cpp — the hot-path kernels and their batch views (see
// kernels.hpp).
#include "linalg/kernels.hpp"

#include <cmath>
#include <limits>

#include "linalg/matrix.hpp"

namespace awd::linalg::kernels {

namespace {

constexpr std::size_t kPad = GemvPanel::kPanelPad;

constexpr std::size_t round_up(std::size_t n) noexcept {
  return (n + (kPad - 1)) & ~(kPad - 1);
}

}  // namespace

// --- batch views ------------------------------------------------------------

void GemvPanel::assign(const Matrix& a) {
  rows = a.rows();
  cols = a.cols();
  padded = round_up(rows);
  data.assign(padded * cols, 0.0);
  for (std::size_t j = 0; j < cols; ++j) {
    double* col = data.data() + j * padded;
    for (std::size_t i = 0; i < rows; ++i) col[i] = a(i, j);
  }
}

void SupportTable::clear() noexcept {
  steps.clear();
  drift.clear();
  spread.clear();
  lo.clear();
  hi.clear();
  rows.clear();
}

void SupportTable::push_step(const double* row_major_rows, const double* drifts,
                             const double* spreads, const double* los,
                             const double* his, std::size_t count) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  Step st;
  st.count = count;
  st.padded = round_up(count);
  st.scalar_off = drift.size();
  st.row_off = rows.size();
  for (std::size_t k = 0; k < st.padded; ++k) {
    const bool live = k < count;
    drift.push_back(live ? drifts[k] : 0.0);
    spread.push_back(live ? spreads[k] : 0.0);
    lo.push_back(live ? los[k] : -kInf);
    hi.push_back(live ? his[k] : kInf);
  }
  rows.resize(rows.size() + dim * st.padded, 0.0);
  double* panel = rows.data() + st.row_off;
  for (std::size_t k = 0; k < count; ++k) {
    const double* row = row_major_rows + k * dim;
    for (std::size_t j = 0; j < dim; ++j) panel[j * st.padded + k] = row[j];
  }
  steps.push_back(st);
}

// --- kernels ----------------------------------------------------------------

void gemv(const GemvPanel& a, const double* x, double* y) noexcept {
  for (std::size_t i = 0; i < a.rows; ++i) {
    double s = 0.0;
    const double* col = a.data.data() + i;
    for (std::size_t j = 0; j < a.cols; ++j) s += col[j * a.padded] * x[j];
    y[i] = s;
  }
}

void abs_diff(const double* a, const double* b, double* out, std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) out[i] = std::abs(a[i] - b[i]);
}

void add_assign(double* out, const double* a, std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) out[i] += a[i];
}

void sub_assign(double* out, const double* a, std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) out[i] -= a[i];
}

bool any_abs_exceeds(const double* z, const double* tau, std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    if (std::abs(z[i]) > tau[i]) return true;
  }
  return false;
}

std::size_t support_walk(const SupportTable& table, const double* x0,
                         std::size_t cap, bool& resolved) noexcept {
  for (std::size_t t = 1; t <= cap; ++t) {
    const SupportTable::Step& st = table.steps[t - 1];
    const double* rows = table.rows.data() + st.row_off;
    const double* drift = table.drift.data() + st.scalar_off;
    const double* spread = table.spread.data() + st.scalar_off;
    const double* lo = table.lo.data() + st.scalar_off;
    const double* hi = table.hi.data() + st.scalar_off;
    for (std::size_t k = 0; k < st.count; ++k) {
      double center = 0.0;
      for (std::size_t j = 0; j < table.dim; ++j) {
        center += rows[j * st.padded + k] * x0[j];
      }
      center += drift[k];
      if (!(lo[k] <= center - spread[k] && center + spread[k] <= hi[k])) {
        resolved = true;
        return t;
      }
    }
  }
  resolved = false;
  return cap;
}

}  // namespace awd::linalg::kernels
