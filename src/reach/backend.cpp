#include "reach/backend.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

#include "core/ckpt.hpp"
#include "obs/metrics.hpp"
#include "reach/deadline.hpp"
#include "reach/table.hpp"

namespace awd::reach {

namespace {

/// Deadline-backend observability.  A query is a "cache hit" when the
/// precomputed machinery answers it (the hot path); a "miss" is any query
/// the backend could not serve — rejected seed or exhausted budget — which
/// forces the caller's decay fallback.  The hit *rate* is iteration-count
/// independent, so the CI metrics gate can compare it across runs.
struct DeadlineObs {
  obs::Counter& hits;
  obs::Counter& misses;
  obs::Counter& box_checks;

  static DeadlineObs& get() {
    static DeadlineObs o{
        obs::Registry::global().counter("awd_deadline_cache_hits_total",
                                        "deadline queries served by the term cache"),
        obs::Registry::global().counter(
            "awd_deadline_cache_misses_total",
            "deadline queries the cache could not serve (bad seed / budget)"),
        obs::Registry::global().counter("awd_deadline_box_checks_total",
                                        "per-step containment walks executed"),
    };
    return o;
  }
};

/// Fingerprint a box: raw IEEE-754 bound patterns so ±inf distinguishes
/// bounded from unbounded dimensions exactly.
void hash_box(core::ckpt::Writer& w, const Box& box) {
  w.u64(box.dim());
  for (std::size_t i = 0; i < box.dim(); ++i) {
    w.f64(box[i].lo);
    w.f64(box[i].hi);
  }
}

}  // namespace

std::uint64_t spec_fingerprint(const BackendSpec& spec) {
  core::ckpt::Writer w;
  w.u8(static_cast<std::uint8_t>(spec.kind));
  // Model identity: dynamics only — display names cannot change answers.
  w.mat(spec.model.A);
  w.mat(spec.model.B);
  w.f64(spec.model.dt);
  hash_box(w, spec.u_range);
  w.f64(spec.eps);
  hash_box(w, spec.safe_set);
  w.u64(spec.deadline.max_window);
  w.f64(spec.deadline.init_radius);
  w.u64(spec.deadline.budget_steps);
  // Kind-conditional knobs: a box spec's fingerprint must not move when an
  // unused grid knob changes, or per-family sharing would fragment.
  if (spec.kind == BackendKind::kTable) {
    // The byte that named the table's source backend; box is the only
    // source, and hashing its kind keeps every fingerprint stable.
    w.u8(static_cast<std::uint8_t>(BackendKind::kBox));
    w.u64(spec.table.cells_per_dim);
    hash_box(w, spec.table.domain);
  }
  return core::ckpt::fnv1a64(w.data().data(), w.size());
}

Backend::~Backend() = default;

Backend::Backend(Box safe_set, DeadlineConfig config, std::size_t state_dim,
                 std::uint64_t fingerprint)
    : safe_(std::move(safe_set)),
      config_(config),
      dim_(state_dim),
      fingerprint_(fingerprint) {
  if (safe_.dim() != dim_) {
    throw std::invalid_argument("reach::Backend: safe set dimension mismatch");
  }
  // Validate here so the noexcept hot path can trust the walk not to throw.
  if (config_.init_radius < 0.0) {
    throw std::invalid_argument("reach::Backend: init_radius must be >= 0");
  }
}

std::size_t Backend::checks_spent_(std::size_t deadline, bool resolved,
                                   std::size_t cap) const noexcept {
  return resolved ? deadline + 1 : cap;
}

void Backend::throw_bad_seed_(const Vec& x0) const {
  if (x0.size() != dim_) {
    throw std::invalid_argument("reach::Backend::estimate: seed dimension mismatch");
  }
  throw std::invalid_argument("reach::Backend::estimate: non-finite seed");
}

core::Result<std::size_t> Backend::estimate_checked(const Vec& x0) const noexcept {
  DeadlineObs& ob = DeadlineObs::get();
  if (x0.size() != dim_) {
    ob.misses.inc();
    return core::Status{core::StatusCode::kInvalidInput,
                        "reach::Backend: seed dimension mismatch"};
  }
  if (!x0.is_finite()) {
    ob.misses.inc();
    return core::Status{core::StatusCode::kInvalidInput,
                        "reach::Backend: non-finite seed rejected"};
  }
  const std::size_t cap = config_.budget_steps == 0
                              ? config_.max_window
                              : std::min(config_.budget_steps, config_.max_window);
  bool resolved = false;
  const std::size_t t = walk_(x0, cap, resolved);
  ob.box_checks.inc(checks_spent_(t, resolved, cap));
  if (resolved) {
    ob.hits.inc();
    return t;
  }
  if (cap < config_.max_window) {
    // The boundary was not resolved within the budget: answering max_window
    // here would *over*-state how much time detection has.  Yield instead.
    ob.misses.inc();
    return core::Status{core::StatusCode::kBudgetExceeded,
                        "reach::Backend: search budget exhausted"};
  }
  ob.hits.inc();
  return config_.max_window;
}

void Backend::serialize(core::ckpt::Writer& w) const {
  w.u8(static_cast<std::uint8_t>(kind()));
  w.u64(fingerprint_);
  w.u64(config_.max_window);
  w.f64(config_.init_radius);
  w.u64(config_.budget_steps);
}

core::Result<std::unique_ptr<Backend>> make_backend(const BackendSpec& spec) {
  using core::Status;
  using core::StatusCode;
  const std::size_t n = spec.model.state_dim();
  if (n == 0 || spec.model.A.rows() != spec.model.A.cols() ||
      spec.model.B.rows() != n) {
    return Status{StatusCode::kInvalidInput, "make_backend: malformed plant model"};
  }
  if (spec.u_range.dim() != spec.model.input_dim() || !spec.u_range.bounded()) {
    return Status{StatusCode::kInvalidInput,
                  "make_backend: u_range must be a bounded box over the plant inputs"};
  }
  if (!(spec.eps >= 0.0) || spec.eps == std::numeric_limits<double>::infinity()) {
    return Status{StatusCode::kInvalidInput,
                  "make_backend: eps must be finite and >= 0"};
  }
  if (spec.safe_set.dim() != n) {
    return Status{StatusCode::kInvalidInput,
                  "make_backend: safe set dimension mismatch"};
  }
  if (!(spec.deadline.init_radius >= 0.0) ||
      spec.deadline.init_radius == std::numeric_limits<double>::infinity()) {
    return Status{StatusCode::kInvalidInput,
                  "make_backend: init_radius must be finite and >= 0"};
  }
  if (spec.deadline.max_window == 0) {
    return Status{StatusCode::kInvalidInput, "make_backend: max_window must be >= 1"};
  }
  // Kind 1 (the retired ellipsoid backend) is rejected with the unknown kinds.
  if (spec.kind != BackendKind::kBox && spec.kind != BackendKind::kTable) {
    return Status{StatusCode::kInvalidInput, "make_backend: unknown backend kind"};
  }
  try {
    if (spec.kind == BackendKind::kTable) {
      core::Result<DeadlineTable> table = build_table(spec);
      if (!table.is_ok()) return table.status();
      return make_table_backend(spec, std::move(table).value());
    }
    return std::unique_ptr<Backend>(new BoxBackend(spec.model, spec.u_range, spec.eps,
                                                   spec.safe_set, spec.deadline));
  } catch (const std::exception&) {
    return Status{StatusCode::kInvalidInput,
                  "make_backend: backend construction rejected its inputs"};
  }
}

}  // namespace awd::reach
