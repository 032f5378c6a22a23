#include "reach/reach.hpp"

#include <cmath>
#include <stdexcept>

#include "reach/support.hpp"

namespace awd::reach {

ReachSystem::ReachSystem(models::DiscreteLti model, Box u_range, double eps,
                         std::size_t horizon)
    : model_(std::move(model)),
      u_range_(std::move(u_range)),
      eps_(eps),
      horizon_(horizon),
      a_pow_(model_.A) {
  model_.validate();
  if (u_range_.dim() != model_.input_dim()) {
    throw std::invalid_argument("ReachSystem: input range dimension mismatch");
  }
  if (!u_range_.bounded()) {
    throw std::invalid_argument("ReachSystem: control input set must be bounded");
  }
  if (eps_ < 0.0) throw std::invalid_argument("ReachSystem: negative uncertainty bound");

  const std::size_t n = model_.state_dim();
  const Vec c = u_range_.center();
  const Vec gamma = u_range_.half_widths();  // diagonal of Q

  // PowerCache grows A^t incrementally (A^{t-1} * A), matching the order
  // of operations the tables below assume; reserve the whole horizon up
  // front so the const accessors never grow the cache.
  a_pow_.reserve(horizon_);

  cum_drift_.reserve(horizon_ + 1);
  cum_spread_.reserve(horizon_ + 1);
  cum_noise_.reserve(horizon_ + 1);
  row_norm2_.reserve(horizon_ + 1);

  cum_drift_.emplace_back(n);
  cum_spread_.emplace_back(n);
  cum_noise_.emplace_back(n);

  // Row norms of A^0 = I.
  {
    Vec r0(n, 1.0);
    row_norm2_.push_back(std::move(r0));
  }

  const Vec bc = model_.B * c;  // B c, drift contribution of A^0
  for (std::size_t t = 1; t <= horizon_; ++t) {
    const Matrix& prev = a_pow_.cached(t - 1);  // A^{t-1}

    // Drift: cum_drift[t] = cum_drift[t-1] + A^{t-1} B c.
    cum_drift_.push_back(cum_drift_.back() + prev * bc);

    // Spread: ‖(A^{t-1} B Q)ᵀ e_i‖₁ = Σ_k |(A^{t-1} B)_{i,k}| γ_k.
    const Matrix ab = prev * model_.B;  // n x m
    Vec spread = cum_spread_.back();
    for (std::size_t i = 0; i < n; ++i) {
      double s = 0.0;
      for (std::size_t k = 0; k < gamma.size(); ++k) s += std::abs(ab(i, k)) * gamma[k];
      spread[i] += s;
    }
    cum_spread_.push_back(std::move(spread));

    // Noise: ε ‖(A^{t-1})ᵀ e_i‖₂ = ε ‖row_i(A^{t-1})‖₂.
    Vec noise = cum_noise_.back();
#ifdef AWD_MUT_REACH_NOISE_INFLATED
    // [mutation-smoke seeded bug] inflates the noise term by 1 %: the cached
    // walk and the uncached recursion both read it, so they still agree, and
    // every deadline turns conservative instead of exact.
    for (std::size_t i = 0; i < n; ++i) noise[i] += 1.01 * eps_ * prev.row_vec(i).norm2();
#else
    for (std::size_t i = 0; i < n; ++i) noise[i] += eps_ * prev.row_vec(i).norm2();
#endif
    cum_noise_.push_back(std::move(noise));

    // Row norms of the next power A^t (already present in the cache).
    const Matrix& cur = a_pow_.cached(t);
    Vec rn(n);
    for (std::size_t i = 0; i < n; ++i) rn[i] = cur.row_vec(i).norm2();
    row_norm2_.push_back(std::move(rn));
  }
}

Box ReachSystem::reach_box(const Vec& x0, std::size_t t, double init_radius) const {
  if (t > horizon_) throw std::out_of_range("ReachSystem::reach_box: step beyond horizon");
  if (x0.size() != model_.state_dim()) {
    throw std::invalid_argument("ReachSystem::reach_box: x0 dimension mismatch");
  }
  if (init_radius < 0.0) {
    throw std::invalid_argument("ReachSystem::reach_box: negative init_radius");
  }

  const std::size_t n = model_.state_dim();
  const Vec center_state = a_pow_.cached(t) * x0;

  std::vector<Interval> dims(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double center = center_state[i] + cum_drift_[t][i];
    const double spread =
        cum_spread_[t][i] + cum_noise_[t][i] + init_radius * row_norm2_[t][i];
    dims[i] = Interval{center - spread, center + spread};
  }
  return Box(std::move(dims));
}

double ReachSystem::support(const Vec& x0, std::size_t t, const Vec& l,
                            double init_radius) const {
  if (t > horizon_) throw std::out_of_range("ReachSystem::support: step beyond horizon");
  if (x0.size() != model_.state_dim() || l.size() != model_.state_dim()) {
    throw std::invalid_argument("ReachSystem::support: dimension mismatch");
  }
  if (init_radius < 0.0) {
    throw std::invalid_argument("ReachSystem::support: negative init_radius");
  }

  // Eq. (3): ρ_R(l) = lᵀ A^t x0 + Σ_j ρ_{B_U}((A^j B)ᵀ l) + Σ_k ρ_{A^k B_ε}(l),
  // plus the initial-ball term when the seed is a set.
  double rho = (a_pow_.cached(t) * x0).dot(l);
  rho += init_radius * a_pow_.cached(t).transpose_times(l).norm2();
  for (std::size_t j = 0; j < t; ++j) {
    const Matrix ajb = a_pow_.cached(j) * model_.B;
    rho += support_mapped_box(ajb, u_range_, l);
    rho += eps_ * a_pow_.cached(j).transpose_times(l).norm2();
  }
  return rho;
}

}  // namespace awd::reach
