// table.hpp — O(1) precomputed deadline tables (DESIGN.md §17).
//
// "Computationally Efficient Safe Control of Linear Systems under Severe
// Sensor Attacks" motivates replacing per-step set propagation with cheap
// precomputed safe-set checks.  This backend does exactly that for the
// deadline query: an offline step (`awd reach`, or build_table() here)
// walks a uniform grid over a bounded box of trusted states and stores one
// conservative deadline per cell; steady-state serving is then a clamped
// nearest-cell lookup — no reach walk at all.
//
// Conservatism contract.  A cell's deadline is computed at the cell center
// with every per-dim spread inflated by the cell's worst-case center
// distance,  infl_i(t) = Σ_j |A^t_{i,j}| h_j / 2  (h = cell widths): for
// any x in the cell, |row_i(A^t)·x − row_i(A^t)·center| <= infl_i(t), so a
// containment check that passes inflated-at-center passes un-inflated at
// every x in the cell.  Hence  table(cell) <= box deadline at
// every x inside the cell — the table never over-states how long the plant
// can be trusted.  Queries outside the domain are clamped per dimension to
// the boundary cell (documented best-effort: the answer is the
// conservative answer for the nearest covered state).
//
// Shipping format.  encode_table() frames the grid through the core::ckpt
// codec (magic / format version / fingerprint / per-section CRC32), with
// the *box source backend's* config fingerprint in the header so a table is
// rejected at load when it was precomputed for a different plant, safe
// set, ε, horizon or grid — decode_table() and make_table_backend()
// validate all of it before a cell is ever served.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "reach/backend.hpp"

namespace awd::reach {

/// A precomputed deadline grid: uniform cells over a bounded domain box,
/// one conservative deadline (u16 steps) per cell, row-major with the last
/// dimension fastest.
struct DeadlineTable {
  std::uint64_t source_fingerprint = 0;        ///< spec_fingerprint of the box source
  std::size_t dim = 0;                         ///< state dimension
  std::size_t max_window = 0;                  ///< w_m the cells are capped at
  Box domain;                                  ///< bounded trusted-state box
  std::vector<std::size_t> cells;              ///< per-dim cell counts (size == dim)
  std::vector<std::uint16_t> deadlines;        ///< prod(cells) entries, <= max_window
};

/// Offline precompute: build the grid `spec.table` describes by walking the
/// box backend at every cell center with cell-width-inflated spreads.  `spec.kind` must be kTable.
/// Validates the grid shape (bounded domain, per-dim lo < hi, cell count in
/// [1, kMaxTableCells] total, max_window <= kMaxTableWindow).
[[nodiscard]] core::Result<DeadlineTable> build_table(const BackendSpec& spec);

/// Serialize a table through the core::ckpt framing (header fingerprint =
/// source_fingerprint, CRC-framed meta + cell sections).
[[nodiscard]] std::vector<std::uint8_t> encode_table(const DeadlineTable& table);

/// Parse + validate an encoded table: framing (magic/version/CRC) and
/// semantics (bounded domain, cell-count product, deadlines <= max_window).
/// kDataLoss on corruption, kUnimplemented on a format-version mismatch.
[[nodiscard]] core::Result<DeadlineTable> decode_table(const std::uint8_t* data,
                                                       std::size_t size);
[[nodiscard]] inline core::Result<DeadlineTable> decode_table(
    const std::vector<std::uint8_t>& bytes) {
  return decode_table(bytes.data(), bytes.size());
}

/// Wrap a (freshly built or decoded) table as a serving backend for `spec`.
/// Cross-checks the table against the spec — dimension, horizon, grid
/// shape, and that table.source_fingerprint matches the fingerprint of the
/// spec's box variant — so a stale or foreign table is rejected
/// instead of served.  A table whose every deadline is 0 is rejected too
/// (kInvalidInput): it would hold every stream at window 0.
[[nodiscard]] core::Result<std::unique_ptr<Backend>> make_table_backend(
    const BackendSpec& spec, DeadlineTable table);

/// Deadline serving by clamped nearest-cell lookup; O(1) per query.
class TableBackend : public Backend {
 public:
  /// Prefer make_table_backend() / make_backend(); this ctor trusts `table`
  /// to be internally consistent and throws std::invalid_argument only on
  /// gross shape mismatches with the safe set / config.
  TableBackend(DeadlineTable table, Box safe_set, DeadlineConfig config,
               std::uint64_t fingerprint);

  [[nodiscard]] BackendKind kind() const noexcept override {
    return BackendKind::kTable;
  }

  [[nodiscard]] const DeadlineTable& table() const noexcept { return table_; }

  /// Base identity plus the full grid, so snapshots embed the table.
  void serialize(core::ckpt::Writer& w) const override;

 protected:
  [[nodiscard]] std::size_t walk_(const Vec& x0, std::size_t cap,
                                  bool& resolved) const noexcept override;
  /// One lookup per query, however large the horizon.
  [[nodiscard]] std::size_t checks_spent_(std::size_t deadline, bool resolved,
                                          std::size_t cap) const noexcept override;

 private:
  /// Per-axis lookup state packed contiguously so one query touches one
  /// short array instead of chasing cells/domain/width vectors separately.
  /// max_cell/stride let the lookup clamp branchlessly in double arithmetic
  /// and index with independent multiplies instead of a serial
  /// `linear * count + cell` chain — the lookup's latency is its whole cost.
  struct Axis {
    double lo;           ///< domain lower bound
    double inv_width;    ///< 1 / cell width
    double max_cell;     ///< count - 1, as a double for the clamp
    std::size_t stride;  ///< row-major stride (last axis fastest, stride 1)
    std::size_t count;   ///< cell count along this axis
  };

  DeadlineTable table_;
  std::vector<Axis> axes_;
};

}  // namespace awd::reach
