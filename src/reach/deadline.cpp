#include "reach/deadline.hpp"

#include <cmath>
#include <limits>
#include <utility>
#include <vector>

namespace awd::reach {

namespace {

/// Fingerprint of the equivalent box BackendSpec without copying the model
/// into one (direct ctors take the model by reference).
std::uint64_t box_fingerprint(const models::DiscreteLti& model, const Box& u_range,
                              double eps, const Box& safe_set,
                              const DeadlineConfig& config) {
  BackendSpec spec;
  spec.kind = BackendKind::kBox;
  spec.model.A = model.A;
  spec.model.B = model.B;
  spec.model.dt = model.dt;
  spec.u_range = u_range;
  spec.eps = eps;
  spec.safe_set = safe_set;
  spec.deadline = config;
  return spec_fingerprint(spec);
}

}  // namespace

void SupportTable::add_check(const double* row, double drift_k, double spread_k,
                             double lo_k, double hi_k) {
  rows.insert(rows.end(), row, row + dim);
  drift.push_back(drift_k);
  spread.push_back(spread_k);
  lo.push_back(lo_k);
  hi.push_back(hi_k);
  ++steps.back().count;
}

std::size_t support_walk(const SupportTable& table, const double* x0, std::size_t cap,
                         bool& resolved) noexcept {
  const std::size_t n = table.dim;
  for (std::size_t t = 1; t <= cap; ++t) {
    const SupportTable::Step& st = table.steps[t - 1];
    for (std::size_t c = st.off; c < st.off + st.count; ++c) {
      const double* row = table.rows.data() + c * n;
      double center = 0.0;
      for (std::size_t j = 0; j < n; ++j) center += row[j] * x0[j];
      center += table.drift[c];
      if (!(table.lo[c] <= center - table.spread[c] &&
            center + table.spread[c] <= table.hi[c])) {
        resolved = true;
        return t;
      }
    }
  }
  resolved = false;
  return cap;
}

BoxBackend::BoxBackend(const models::DiscreteLti& model, Box u_range, double eps,
                       Box safe_set, DeadlineConfig config)
    // No std::move on the boxes: box_fingerprint reads them, and argument
    // evaluation order is unspecified.
    : Backend(safe_set, config, model.state_dim(),
              box_fingerprint(model, u_range, eps, safe_set, config)),
      reach_(model, std::move(u_range), eps, config.max_window) {
  // Cache the x0-independent reach spreads per step: accumulated input-box
  // spread + uncertainty-ball spread + the initial-ball term (Eq. 4/5).
  const std::size_t n = dim_;
  spreads_.reserve(config_.max_window);
  for (std::size_t t = 1; t <= config_.max_window; ++t) {
    Vec spread(n);
    for (std::size_t i = 0; i < n; ++i) {
#ifdef AWD_MUT_STALE_CACHE_TERM
      // [mutation-smoke seeded bug] caches the previous step's noise term:
      // under-approximates the reach box, over-states the deadline.
      spread[i] = reach_.cum_spread(t)[i] + reach_.cum_noise(t - 1)[i] +
                  config_.init_radius * reach_.initial_ball_scale(t)[i];
#else
      spread[i] = reach_.cum_spread(t)[i] + reach_.cum_noise(t)[i] +
                  config_.init_radius * reach_.initial_ball_scale(t)[i];
#endif
    }
    spreads_.push_back(std::move(spread));
  }
  table_ = widened_table({});
}

SupportTable BoxBackend::widened_table(const std::vector<double>& half_width) const {
  // Flatten the spreads + the safe set + cached drift/A^t rows into the
  // SupportTable, dropping dimensions the safe set leaves unconstrained
  // (they can never fail).  Unwidened, the checks replicate the reach_box
  // arithmetic exactly, so the cached walk is bit-identical to the uncached
  // recursion.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::size_t n = dim_;
  SupportTable out;
  out.dim = n;
  for (std::size_t t = 1; t <= config_.max_window; ++t) {
    out.begin_step();
    const Vec& spread = spreads_[t - 1];
    for (std::size_t i = 0; i < n; ++i) {
      const Interval& s = safe_[i];
      if (s.lo == -kInf && s.hi == kInf) continue;
      const Vec row = reach_.a_power(t).row_vec(i);
      double widened = spread[i];
      if (!half_width.empty()) {
        double infl = 0.0;
        for (std::size_t j = 0; j < n; ++j) infl += std::fabs(row[j]) * half_width[j];
        widened += infl;
      }
      out.add_check(row.data(), reach_.cum_drift(t)[i], widened, s.lo, s.hi);
    }
  }
  return out;
}

std::size_t BoxBackend::walk_(const Vec& x0, std::size_t cap,
                              bool& resolved) const noexcept {
  // R̄ ∩ F = ∅  ⟺  R̄ ⊆ S when F is the complement of the safe box S, so
  // the search tests containment step by step (Fig. 2), reading the
  // precomputed per-step terms instead of re-running the reach recursion.
  // The walk reports the first *failing* reach step t; the deadline is the
  // last trusted step before it.
  const std::size_t t = support_walk(table_, x0.data(), cap, resolved);
  if (!resolved) return cap;
#ifdef AWD_MUT_DEADLINE_OFF_BY_ONE
  // [mutation-smoke seeded bug] reports the first *unsafe* step as the
  // deadline — one step more than the plant can actually be trusted.
  return t;
#else
  return t - 1;
#endif
}

std::size_t BoxBackend::estimate_uncached(const Vec& x0) const {
  for (std::size_t t = 1; t <= config_.max_window; ++t) {
    const Box r = reach_.reach_box(x0, t, config_.init_radius);
    if (!safe_.contains(r)) return t - 1;
  }
  return config_.max_window;
}

bool BoxBackend::conservatively_safe_at(const Vec& x0, std::size_t t) const {
  return safe_.contains(reach_.reach_box(x0, t, config_.init_radius));
}

}  // namespace awd::reach
