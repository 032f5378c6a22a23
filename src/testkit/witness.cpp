#include "testkit/witness.hpp"

#include <sstream>

namespace awd::testkit {

using linalg::Vec;

std::vector<Vec> worst_case_witness(const models::DiscreteLti& model,
                                    const reach::Box& u_range, double eps, const Vec& x0,
                                    double init_radius, std::size_t T, std::size_t dim,
                                    int side) {
  const std::size_t n = model.state_dim();
  const double s = side;

  // dirs[k] = (A^k)ᵀ e_dim: the direction step T-k's contributions are read in.
  std::vector<Vec> dirs;
  dirs.reserve(T + 1);
  Vec e(n);
  e[dim] = 1.0;
  dirs.push_back(std::move(e));
  for (std::size_t k = 1; k <= T; ++k) dirs.push_back(model.A.transpose_times(dirs.back()));
  // The point of the `radius` ball around the origin furthest along s·d.
  const auto ball_extreme = [&](const Vec& d, double radius) {
    const double norm = d.norm2();
    return norm > 0.0 ? d * (s * radius / norm) : Vec(n);
  };

  const Vec center = u_range.center();
  const Vec half = u_range.half_widths();
  std::vector<Vec> xs;
  xs.reserve(T + 1);
  xs.push_back(x0 + ball_extreme(dirs[T], init_radius));
  for (std::size_t k = 0; k < T; ++k) {
    const Vec& d = dirs[T - 1 - k];
    const Vec gain = model.B.transpose_times(d);  // (A^{T-1-k} B)ᵀ e_dim
    Vec u = center;
    for (std::size_t j = 0; j < u.size(); ++j) u[j] += s * gain[j] >= 0.0 ? half[j] : -half[j];
    xs.push_back(model.step(xs.back(), u) + ball_extreme(d, eps));
  }
  return xs;
}

std::string WitnessVerdict::describe() const {
  if (exact()) return "exact";
  std::ostringstream os;
  if (side == 0) {
    os << "deadline " << deadline << " < w_m=" << max_window << " but the reach box at step "
       << deadline + 1 << " stays inside S";
    return os.str();
  }
  os << "the worst-case witness for dim " << dim << (side > 0 ? " (upper)" : " (lower)")
     << " at step " << deadline + 1;
  if (left_at == 0) {
    os << " stays in S: deadline " << deadline << " is too conservative";
  } else {
    os << " leaves S at step " << left_at << ": UNSOUND deadline " << deadline;
  }
  return os.str();
}

WitnessVerdict check_deadline_witness(const reach::BoxBackend& backend, const Vec& x0) {
  WitnessVerdict v;
  v.max_window = backend.config().max_window;
  v.deadline = backend.estimate(x0);
  if (v.deadline >= v.max_window) return v;

  const std::size_t T = v.deadline + 1;
  const reach::ReachSystem& rs = backend.reach();
  const double init_radius = backend.config().init_radius;
  const reach::Box& safe = backend.safe_set();
  const reach::Box box = rs.reach_box(x0, T, init_radius);
  double worst = 0.0;
  for (std::size_t i = 0; i < safe.dim(); ++i) {
    if (const double over = box[i].hi - safe[i].hi; over > worst) {
      worst = over;
      v.dim = i;
      v.side = 1;
    }
    if (const double under = safe[i].lo - box[i].lo; under > worst) {
      worst = under;
      v.dim = i;
      v.side = -1;
    }
  }
  if (v.side == 0) return v;

  const std::vector<Vec> xs = worst_case_witness(rs.model(), rs.input_range(),
                                                 rs.uncertainty_bound(), x0, init_radius, T,
                                                 v.dim, v.side);
  for (std::size_t t = 1; t <= T; ++t) {
    if (!safe.contains(xs[t])) {
      v.left_at = t;
      break;
    }
  }
  return v;
}

}  // namespace awd::testkit
