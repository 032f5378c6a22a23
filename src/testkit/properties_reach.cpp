// properties_reach.cpp — oracles for the Detection Deadline Estimator (§3):
// cached-vs-uncached bit-equality (including a boundary-tuned safe set that
// makes any stale cache term visible), brute-force walk consistency,
// exactness against worst-case witness trajectories, and uncertainty
// monotonicity.
#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <memory>
#include <sstream>
#include <string>

#include "core/config.hpp"
#include "reach/deadline.hpp"
#include "reach/table.hpp"
#include "testkit/properties.hpp"
#include "testkit/witness.hpp"

namespace awd::testkit::props {

namespace {

using reach::Box;
using reach::BoxBackend;
using reach::DeadlineConfig;
using reach::Interval;

constexpr double kInf = std::numeric_limits<double>::infinity();

/// A seed state near the case's initial state — inside the safe interior
/// for most draws, so deadlines are usually nonzero and the walks have
/// something to do.
Vec seed_state(const core::SimulatorCase& c, PropRng& rng) {
  const double scale = 0.15 * (1.0 + c.x0.norm2());
  return c.x0 + rng.in_ball(c.model.state_dim(), scale);
}

}  // namespace

PropertyResult deadline_cached_equals_uncached(std::uint64_t seed,
                                               const GenLimits& limits) {
  PropRng rng(seed);
  ScenarioOptions opt;
  opt.allow_budget = false;
  const Scenario sc = generate_scenario(rng, limits, opt);
  const core::SimulatorCase& c = sc.scase;
  const double eps_reach = c.eps_reach == 0.0 ? c.eps : c.eps_reach;
  const double init_radius = rng.chance(0.5) ? 0.0 : rng.uniform(0.0, 0.2);

  // Part 1: the generated safe set, several random seeds.
  const BoxBackend est(c.model, c.u_range, eps_reach, c.safe_set,
                              DeadlineConfig{c.max_window, init_radius, 0});
  for (int k = 0; k < 6; ++k) {
    const Vec x0 = seed_state(c, rng);
    const std::size_t cached = est.estimate(x0);
    const std::size_t uncached = est.estimate_uncached(x0);
    if (cached != uncached) {
      return PropertyResult::fail("cached deadline " + std::to_string(cached) +
                                  " != uncached " + std::to_string(uncached) +
                                  " on generated safe set; " + sc.describe());
    }
  }

  // Part 2: a boundary-tuned safe set.  Place the bound of one dimension
  // half a step-t* noise increment inside the reach-box bound, so the
  // containment decision at t* is marginal at exactly the scale of one
  // cum_noise term: a cache built from stale accumulated terms flips the
  // decision and the walk diverges from the recursion.  t* = 1 pins the
  // increment to eps itself (cum_noise(1) - cum_noise(0) = eps·‖e_i‖₂).
  const Vec x0 = seed_state(c, rng);
  const std::size_t n = c.model.state_dim();
  for (const std::size_t t_star :
       {std::size_t{1}, rng.range(1, std::max<std::size_t>(1, c.max_window))}) {
    const std::size_t i = rng.below(n);
    const double delta =
        est.reach().cum_noise(t_star)[i] - est.reach().cum_noise(t_star - 1)[i];
    if (!(delta > 0.0)) continue;  // eps == 0: no noise increment to tune against
    const Box box = est.reach().reach_box(x0, t_star, init_radius);
    const double hi = box[i].hi - 0.5 * delta;
    if (!(hi > box[i].lo) || !std::isfinite(hi)) continue;
    std::vector<Interval> dims(n, Interval{-kInf, kInf});
    dims[i] = Interval{-kInf, hi};
    const BoxBackend tuned(c.model, c.u_range, eps_reach, Box(std::move(dims)),
                                  DeadlineConfig{c.max_window, init_radius, 0});
    const std::size_t cached = tuned.estimate(x0);
    const std::size_t uncached = tuned.estimate_uncached(x0);
    if (cached != uncached) {
      return PropertyResult::fail(
          "cached deadline " + std::to_string(cached) + " != uncached " +
          std::to_string(uncached) + " on boundary-tuned safe set (t*=" +
          std::to_string(t_star) + ", dim " + std::to_string(i) + "); " + sc.describe());
    }
  }
  return PropertyResult::pass();
}

PropertyResult deadline_brute_force_walk(std::uint64_t seed, const GenLimits& limits) {
  PropRng rng(seed);
  const Scenario sc = generate_scenario(rng, limits, {});
  const core::SimulatorCase& c = sc.scase;
  const double eps_reach = c.eps_reach == 0.0 ? c.eps : c.eps_reach;
  const double init_radius = rng.chance(0.5) ? 0.0 : rng.uniform(0.0, 0.2);
  const BoxBackend est(c.model, c.u_range, eps_reach, c.safe_set,
                              DeadlineConfig{c.max_window, init_radius, sc.deadline_budget});

  for (int k = 0; k < 4; ++k) {
    const Vec x0 = seed_state(c, rng);
    const std::size_t t_d = est.estimate(x0);

    // Brute-force conservative-safety walk (Fig. 2): the deadline is the
    // last step whose reach box is still contained in S.
    std::size_t brute = c.max_window;
    for (std::size_t t = 1; t <= c.max_window; ++t) {
      if (!est.conservatively_safe_at(x0, t)) {
        brute = t - 1;
        break;
      }
    }
    if (t_d != brute) {
      return PropertyResult::fail("estimate() " + std::to_string(t_d) +
                                  " != brute-force walk " + std::to_string(brute) + "; " +
                                  sc.describe());
    }
    // estimate() must never exceed the brute-force bound, and every step it
    // vouches for must be conservatively safe (Def. 3.1).
    for (std::size_t t = 1; t <= t_d; ++t) {
      if (!est.conservatively_safe_at(x0, t)) {
        return PropertyResult::fail("deadline " + std::to_string(t_d) +
                                    " vouches for unsafe step " + std::to_string(t) + "; " +
                                    sc.describe());
      }
    }

    // Budget semantics: with budget b the checked estimate either resolves
    // to the same deadline or yields kBudgetExceeded, exactly when the
    // boundary lies past the budget cap.
    const core::Result<std::size_t> checked = est.estimate_checked(x0);
    const std::size_t cap = sc.deadline_budget == 0
                                ? c.max_window
                                : std::min(sc.deadline_budget, c.max_window);
    const bool resolvable_within_cap = t_d < cap || (t_d == c.max_window && cap == c.max_window);
    if (resolvable_within_cap) {
      if (!checked.is_ok() || checked.value() != t_d) {
        return PropertyResult::fail(
            "estimate_checked (budget " + std::to_string(sc.deadline_budget) +
            ") diverged from estimate " + std::to_string(t_d) + "; " + sc.describe());
      }
    } else if (checked.is_ok()) {
      return PropertyResult::fail(
          "estimate_checked resolved " + std::to_string(checked.value()) +
          " although the boundary (t_d=" + std::to_string(t_d) + ") lies past budget cap " +
          std::to_string(cap) + "; " + sc.describe());
    } else if (checked.status().code() != core::StatusCode::kBudgetExceeded) {
      return PropertyResult::fail("estimate_checked failed with unexpected status: " +
                                  std::string(checked.status().message()) + "; " +
                                  sc.describe());
    }
  }
  return PropertyResult::pass();
}

PropertyResult deadline_witness_exact(std::uint64_t seed, const GenLimits& limits) {
  PropRng rng(seed);
  ScenarioOptions opt;
  opt.allow_budget = false;
  const Scenario sc = generate_scenario(rng, limits, opt);
  const double init_radius = rng.chance(0.5) ? 0.0 : rng.uniform(0.0, 0.1);
  const reach::BackendSpec spec = core::make_backend_spec(sc.scase, init_radius, 0);
  const BoxBackend est(spec.model, spec.u_range, spec.eps, spec.safe_set, spec.deadline);

  // Def. 3.1 from both sides: for each probe with t_d < w_m, the worst-case
  // witness of the reach box's failing side at t_d + 1 must stay in S
  // through t_d (soundness) and leave it at t_d + 1 (tightness).  Probes are
  // uniform over the trusted-state domain, so most land near enough to the
  // boundary to resolve a deadline.
  const Box& domain = spec.table.domain;
  for (int k = 0; k < 64; ++k) {
    Vec x0(domain.dim());
    for (std::size_t i = 0; i < x0.size(); ++i) {
      x0[i] = rng.uniform(domain[i].lo, domain[i].hi);
    }
    const WitnessVerdict v = check_deadline_witness(est, x0);
    if (!v.exact()) {
      std::ostringstream os;
      os << v.describe() << " (init_radius " << init_radius << ", probe " << k << "); "
         << sc.describe();
      return PropertyResult::fail(os.str());
    }
  }
  return PropertyResult::pass();
}

PropertyResult deadline_monotone_in_uncertainty(std::uint64_t seed,
                                                const GenLimits& limits) {
  PropRng rng(seed);
  ScenarioOptions opt;
  opt.allow_budget = false;
  const Scenario sc = generate_scenario(rng, limits, opt);
  const core::SimulatorCase& c = sc.scase;
  const double eps0 = c.eps_reach == 0.0 ? c.eps : c.eps_reach;
  const BoxBackend base(c.model, c.u_range, eps0, c.safe_set,
                               DeadlineConfig{c.max_window, 0.0, 0});

  const Vec x0 = seed_state(c, rng);
  const std::size_t t_base = base.estimate(x0);

  // More measurement/process uncertainty can only shorten a sound deadline.
  const double eps_grown = (eps0 == 0.0 ? 1e-6 : eps0) * rng.uniform(1.5, 4.0);
  const BoxBackend grown_eps(c.model, c.u_range, eps_grown, c.safe_set,
                                    DeadlineConfig{c.max_window, 0.0, 0});
  const std::size_t t_eps = grown_eps.estimate(x0);
  if (t_eps > t_base) {
    return PropertyResult::fail("growing eps " + std::to_string(eps0) + " -> " +
                                std::to_string(eps_grown) + " lengthened the deadline " +
                                std::to_string(t_base) + " -> " + std::to_string(t_eps) +
                                "; " + sc.describe());
  }

  // A larger initial-state ball can only shorten it.
  const BoxBackend grown_ball(c.model, c.u_range, eps0, c.safe_set,
                                     DeadlineConfig{c.max_window, rng.uniform(0.05, 0.5), 0});
  const std::size_t t_ball = grown_ball.estimate(x0);
  if (t_ball > t_base) {
    return PropertyResult::fail("growing the initial ball lengthened the deadline " +
                                std::to_string(t_base) + " -> " + std::to_string(t_ball) +
                                "; " + sc.describe());
  }

  // A smaller safe set can only shorten it.  Shrink every bounded side
  // toward the seed state so x0 stays strictly inside.
  const std::size_t n = c.model.state_dim();
  std::vector<Interval> dims(n);
  const double shrink = rng.uniform(0.3, 0.9);
  for (std::size_t i = 0; i < n; ++i) {
    const Interval& s = c.safe_set[i];
    dims[i] = s;
    // Clamping keeps the result a subset of s even when the (perturbed)
    // anchor x0 fell outside the original interval.
    if (s.lo != -kInf) dims[i].lo = std::max(s.lo, x0[i] - (x0[i] - s.lo) * shrink);
    if (s.hi != kInf) dims[i].hi = std::min(s.hi, x0[i] + (s.hi - x0[i]) * shrink);
    if (dims[i].lo > dims[i].hi) {
      const double p = s.clamp(x0[i]);
      dims[i] = Interval{p, p};
    }
  }
  const BoxBackend shrunk(c.model, c.u_range, eps0, Box(std::move(dims)),
                                 DeadlineConfig{c.max_window, 0.0, 0});
  const std::size_t t_shrunk = shrunk.estimate(x0);
  if (t_shrunk > t_base) {
    return PropertyResult::fail("shrinking the safe set lengthened the deadline " +
                                std::to_string(t_base) + " -> " + std::to_string(t_shrunk) +
                                "; " + sc.describe());
  }
  return PropertyResult::pass();
}

PropertyResult backend_soundness_differential(std::uint64_t seed,
                                              const GenLimits& limits) {
  PropRng rng(seed);
  ScenarioOptions opt;
  opt.allow_budget = false;
  const Scenario sc = generate_scenario(rng, limits, opt);
  const core::SimulatorCase& c = sc.scase;
  const std::size_t n = c.model.state_dim();
  const double eps_reach = c.eps_reach == 0.0 ? c.eps : c.eps_reach;
  const double init_radius = rng.chance(0.5) ? 0.0 : rng.uniform(0.0, 0.1);
  const DeadlineConfig dc{c.max_window, init_radius, 0};

  const BoxBackend box(c.model, c.u_range, eps_reach, c.safe_set, dc);

  // A deadline-table spec over a domain that covers every seed_state draw.
  reach::BackendSpec spec;
  spec.kind = reach::BackendKind::kTable;
  spec.model = c.model;
  spec.u_range = c.u_range;
  spec.eps = eps_reach;
  spec.safe_set = c.safe_set;
  spec.deadline = dc;
  spec.table.cells_per_dim = n <= 3 ? 8 : (n <= 6 ? 4 : 2);
  {
    const double r = 0.4 * (1.0 + c.x0.norm2()) + 0.1;
    std::vector<Interval> dims(n);
    for (std::size_t i = 0; i < n; ++i) dims[i] = Interval{c.x0[i] - r, c.x0[i] + r};
    spec.table.domain = Box(std::move(dims));
  }
  core::Result<std::unique_ptr<reach::Backend>> built = reach::make_backend(spec);
  if (!built.is_ok()) {
    return PropertyResult::fail("table backend construction failed: " +
                                std::string(built.status().message()) + "; " +
                                sc.describe());
  }
  const std::unique_ptr<reach::Backend> table = std::move(built).value();
  const auto& tb = dynamic_cast<const reach::TableBackend&>(*table);
  const reach::DeadlineTable& dt = tb.table();

  for (int k = 0; k < 6; ++k) {
    const Vec x0 = seed_state(c, rng);

    // The box backend is the exact oracle: cached == uncached bitwise.
    const std::size_t t_box = box.estimate(x0);
    if (t_box != box.estimate_uncached(x0)) {
      return PropertyResult::fail("box cached deadline " + std::to_string(t_box) +
                                  " != uncached " +
                                  std::to_string(box.estimate_uncached(x0)) + "; " +
                                  sc.describe());
    }

    // Conservatism: the table may not promise more time than the exact box
    // walk vouches for.
    if (spec.table.domain.contains(x0)) {
      const std::size_t t_tab = table->estimate(x0);
      if (t_tab > t_box) {
        return PropertyResult::fail("table deadline " + std::to_string(t_tab) +
                                    " > box deadline " + std::to_string(t_box) +
                                    " at an in-domain seed (unsound); " + sc.describe());
      }
    }

    // Clamp contract: an out-of-domain seed must serve the nearest covered
    // cell.  The expected cell index is recomputed here, independently of
    // TableBackend's lookup.
    const std::size_t d = rng.below(n);
    Vec probe = spec.table.domain.clamp(x0);
    const double span = spec.table.domain[d].hi - spec.table.domain[d].lo;
    const bool above = rng.chance(0.5);
    probe[d] = above ? spec.table.domain[d].hi + rng.uniform(0.2, 0.8) * span
                     : spec.table.domain[d].lo - rng.uniform(0.2, 0.8) * span;
    std::size_t linear = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t count = dt.cells[i];
      // Same operation order as TableBackend's lookup (width inverse first),
      // so the comparison is exact rather than merely close.
      const double inv_width =
          static_cast<double>(count) / (dt.domain[i].hi - dt.domain[i].lo);
      const double raw = (probe[i] - dt.domain[i].lo) * inv_width;
      std::size_t cell = 0;
      if (raw >= static_cast<double>(count)) {
        cell = count - 1;
      } else if (raw > 0.0) {
        cell = static_cast<std::size_t>(raw);
      }
      linear = linear * count + cell;
    }
    const std::size_t expected = dt.deadlines[linear];
    const std::size_t served = table->estimate(probe);
    if (served != expected) {
      std::ostringstream os;
      os << "out-of-domain probe (dim " << d << (above ? ", above" : ", below")
         << ") served deadline " << served << " != nearest covered cell's " << expected
         << " (clamp contract violated); " << sc.describe();
      return PropertyResult::fail(os.str());
    }
  }
  return PropertyResult::pass();
}

}  // namespace awd::testkit::props
