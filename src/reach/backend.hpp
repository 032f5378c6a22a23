// backend.hpp — the pluggable reachability backend interface (DESIGN.md §17).
//
// The deadline estimator is the most expensive pipeline stage even with the
// term cache, and its box support-function walk used to be hard-wired into
// one class.  This header redesigns the reach layer around an abstract
// `Backend`: every deadline producer answers the same two queries —
// `estimate(x0)` (throwing, setup/validation contexts) and
// `estimate_checked(x0)` (noexcept hot path with budget semantics) — and
// carries a config fingerprint plus a `name()` for obs/forensics
// attribution.  Two implementations ship:
//
//   * BoxBackend   (reach/deadline.hpp) — the paper's cached box
//     support-function walk (ULP bound 0 against estimate_uncached).
//   * TableBackend (reach/table.hpp)    — O(1) clamped nearest-cell lookup
//     into an offline-precomputed grid of box deadlines (`awd reach`),
//     shipped through the core::ckpt codec with fingerprint/CRC framing.
//
// The base class owns the shared estimate / estimate_checked logic (seed
// validation, budget cap, cache-hit observability) on top of one protected
// `walk_` hook, so backend implementations cannot drift from the checked
// variant — the historical duplication between `estimate` and the
// budget/decay fallback path is gone.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>

#include "core/status.hpp"
#include "reach/reach.hpp"

namespace awd::core::ckpt {
class Writer;
}  // namespace awd::core::ckpt

namespace awd::reach {

/// Tunables for the deadline search (shared by every backend).
struct DeadlineConfig {
  std::size_t max_window = 40;  ///< w_m — search cap and sliding-window size
  double init_radius = 0.0;     ///< radius of the initial-state ball (§3.3.1)
  /// Real-time budget: reach queries the per-step search may spend before it
  /// must yield (0 = unlimited).  A search that hits the budget without
  /// finding the boundary returns kBudgetExceeded and the caller falls back
  /// to its last valid deadline.  TableBackend resolves every query in one
  /// lookup, so the budget never binds there.
  std::size_t budget_steps = 0;
};

/// The reachability math a backend runs on.  The values are wire bytes:
/// they are hashed into spec fingerprints and stored in snapshots and table
/// images.
enum class BackendKind : std::uint8_t {
  kBox = 0,        ///< cached box support-function walk (§3.2 exact per-dim bounds)
  kEllipsoid = 1,  ///< retired and reserved: make_backend rejects it
  kTable = 2,      ///< precomputed deadline grid, clamped nearest-cell lookup
};

/// Printable backend name ("box", "table"; "ellipsoid" names the retired
/// kind) — the obs/forensics attribution tag.
[[nodiscard]] constexpr std::string_view to_string(BackendKind kind) noexcept {
  switch (kind) {
    case BackendKind::kBox: return "box";
    case BackendKind::kEllipsoid: return "ellipsoid";
    case BackendKind::kTable: return "table";
  }
  return "unknown";
}

/// TableBackend grid shape.
struct TableGridConfig {
  std::size_t cells_per_dim = 8;  ///< uniform cell count per state dimension
  /// Bounded box of trusted states the grid covers (per-dim lo < hi).
  /// Queries outside are clamped to the boundary cell (documented
  /// best-effort contract; the clamped answer is the conservative answer for
  /// the nearest covered state).
  Box domain;
};

/// Everything needed to build any backend — the factory input.
struct BackendSpec {
  BackendKind kind = BackendKind::kBox;
  models::DiscreteLti model;  ///< discrete plant dynamics
  Box u_range;                ///< admissible control box U (bounded)
  double eps = 0.0;           ///< uncertainty ball radius ε
  Box safe_set;               ///< safe state box S (dims may be unbounded)
  DeadlineConfig deadline;
  TableGridConfig table;  ///< read when kind is kTable
};

/// FNV-1a fingerprint over every spec field that can change a backend's
/// answers (model matrices, input box, ε, safe set, deadline config, plus
/// the grid knobs when the kind is kTable).  Two specs with
/// equal fingerprints produce interchangeable backends — this is the
/// per-family sharing key in serve::StreamEngine and the identity stamped
/// into precomputed table files.
[[nodiscard]] std::uint64_t spec_fingerprint(const BackendSpec& spec);

/// Abstract deadline-serving backend.  See file header for the contract;
/// construction happens through make_backend() or a concrete type's ctor
/// (which throws std::invalid_argument on mis-wired dimensions).
class Backend {
 public:
  virtual ~Backend();

  Backend(const Backend&) = default;
  Backend& operator=(const Backend&) = delete;

  /// Which reachability math this backend runs on.
  [[nodiscard]] virtual BackendKind kind() const noexcept = 0;

  /// Attribution tag for obs/forensics output — to_string(kind()).
  [[nodiscard]] std::string_view name() const noexcept { return to_string(kind()); }

  /// Deadline t_d ∈ [0, max_window] for trusted seed state x0.
  ///   * t_d = max_window  — no reachable intersection within the horizon,
  ///   * t_d = 0           — the very next step may already be unsafe.
  /// Ignores the search budget; throws std::invalid_argument on a mis-shaped
  /// or non-finite seed.  Defined inline: the wrapper is two branches around
  /// the virtual walk, and an out-of-line frame here is measurable against
  /// TableBackend's single-lookup walk.
  [[nodiscard]] std::size_t estimate(const Vec& x0) const {
    if (x0.size() != dim_ || !x0.is_finite()) throw_bad_seed_(x0);
    bool resolved = false;
    const std::size_t t = walk_(x0, config_.max_window, resolved);
    return resolved ? t : config_.max_window;
  }

  /// Hot-path entry point: never throws on bad runtime data.  Returns
  ///   * kInvalidInput   — x0 mis-shaped or non-finite (a corrupted seed
  ///                       must not drive reachability),
  ///   * kBudgetExceeded — the search spent config().budget_steps reach
  ///                       queries without resolving the deadline.
  /// On either failure the caller applies its degradation policy (see
  /// core::DetectionSystem: last valid deadline decremented per elapsed
  /// step, floor 1).
  [[nodiscard]] core::Result<std::size_t> estimate_checked(const Vec& x0) const noexcept;

  /// Serialize identity + config (kind, fingerprint, deadline knobs; the
  /// table backend appends its grid) for embedding in snapshots and
  /// forensics dumps.
  virtual void serialize(core::ckpt::Writer& w) const;

  /// Config fingerprint — equals spec_fingerprint() of the spec this backend
  /// was built from.
  [[nodiscard]] std::uint64_t fingerprint() const noexcept { return fingerprint_; }

  [[nodiscard]] const Box& safe_set() const noexcept { return safe_; }
  [[nodiscard]] const DeadlineConfig& config() const noexcept { return config_; }
  [[nodiscard]] std::size_t state_dim() const noexcept { return dim_; }

 protected:
  /// @param safe_set    safe state box (dims may be unbounded)
  /// @param config      deadline search tunables (validated: init_radius >= 0)
  /// @param state_dim   plant state dimension (seed vectors must match)
  /// @param fingerprint spec fingerprint of the backend's configuration
  Backend(Box safe_set, DeadlineConfig config, std::size_t state_dim,
          std::uint64_t fingerprint);

  /// Deadline search over reach steps [1, cap]: returns the deadline (last
  /// trusted step before the first containment failure) with resolved=true,
  /// or resolved=false when the search exhausts cap without finding the
  /// boundary (return value then ignored).  Must be noexcept — the checked
  /// path runs once per control period.
  [[nodiscard]] virtual std::size_t walk_(const Vec& x0, std::size_t cap,
                                          bool& resolved) const noexcept = 0;

  /// Containment checks a resolved/capped walk spent, for the
  /// awd_deadline_box_checks_total counter.  Walk backends charge one per
  /// step visited; TableBackend overrides to 1.
  [[nodiscard]] virtual std::size_t checks_spent_(std::size_t deadline, bool resolved,
                                                  std::size_t cap) const noexcept;

  /// Cold half of estimate()'s seed validation: picks the precise
  /// std::invalid_argument message.  Out-of-line so the inline wrapper stays
  /// two compares + the walk.
  [[noreturn]] void throw_bad_seed_(const Vec& x0) const;

  Box safe_;
  DeadlineConfig config_;
  std::size_t dim_ = 0;
  std::uint64_t fingerprint_ = 0;
};

/// Build the backend `spec` describes.  Validates every field (dimension
/// mismatches, unbounded u_range, negative radii, degenerate table grids,
/// the retired kind kEllipsoid) and returns kInvalidInput instead of
/// throwing; kTable additionally runs
/// the offline grid precompute (see reach/table.hpp to load a shipped table
/// instead).
[[nodiscard]] core::Result<std::unique_ptr<Backend>> make_backend(const BackendSpec& spec);

/// Hard cap on a deadline table's total cell count (memory guard; grids are
/// per-dim uniform, so dimensionality is the real driver).
inline constexpr std::size_t kMaxTableCells = std::size_t{1} << 20;

/// Largest max_window a deadline table can encode (cells store u16 steps).
inline constexpr std::size_t kMaxTableWindow = 65535;

}  // namespace awd::reach
