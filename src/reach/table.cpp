#include "reach/table.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "core/ckpt.hpp"
#include "reach/deadline.hpp"

namespace awd::reach {

namespace {

// Section ids inside an encoded table image.
constexpr std::uint32_t kMetaSection = 1;
constexpr std::uint32_t kCellSection = 2;

/// Overflow-safe product of per-dim cell counts; 0 when any count is 0 or
/// the product exceeds kMaxTableCells.
std::size_t cell_product(const std::vector<std::size_t>& cells) {
  std::size_t total = 1;
  for (const std::size_t c : cells) {
    if (c == 0 || total > kMaxTableCells / c) return 0;
    total *= c;
  }
  return total;
}

core::Status validate_grid_shape(const BackendSpec& spec) {
  using core::Status;
  using core::StatusCode;
  if (spec.kind != BackendKind::kTable) {
    return Status{StatusCode::kInvalidInput, "deadline table: spec kind must be kTable"};
  }
  const std::size_t n = spec.model.state_dim();
  const Box& domain = spec.table.domain;
  if (domain.dim() != n) {
    return Status{StatusCode::kInvalidInput,
                  "deadline table: domain dimension mismatch"};
  }
  for (std::size_t d = 0; d < n; ++d) {
    if (!domain[d].bounded() || !(domain[d].lo < domain[d].hi)) {
      return Status{StatusCode::kInvalidInput,
                    "deadline table: domain must be bounded with lo < hi per dim"};
    }
  }
  const std::vector<std::size_t> cells(n, spec.table.cells_per_dim);
  if (cell_product(cells) == 0) {
    return Status{StatusCode::kInvalidInput,
                  "deadline table: cell count out of range (max kMaxTableCells total)"};
  }
  if (spec.deadline.max_window > kMaxTableWindow) {
    return Status{StatusCode::kInvalidInput,
                  "deadline table: max_window exceeds the u16 cell encoding"};
  }
  return Status::ok();
}

/// The spec of the box backend a table's cells lower-bound: same plant and
/// deadline config, kind flipped to kBox.
BackendSpec source_variant(const BackendSpec& spec) {
  BackendSpec source = spec;
  source.kind = BackendKind::kBox;
  return source;
}

}  // namespace

core::Result<DeadlineTable> build_table(const BackendSpec& spec) {
  using core::Status;
  using core::StatusCode;
  if (Status s = validate_grid_shape(spec); !s.is_ok()) return s;

  const BackendSpec src_spec = source_variant(spec);
  core::Result<std::unique_ptr<Backend>> src = make_backend(src_spec);
  if (!src.is_ok()) return src.status();
  const auto& walker = static_cast<const BoxBackend&>(*src.value());

  const std::size_t n = spec.model.state_dim();
  const std::size_t w_m = spec.deadline.max_window;
  DeadlineTable table;
  table.source_fingerprint = spec_fingerprint(src_spec);
  table.dim = n;
  table.max_window = w_m;
  table.domain = spec.table.domain;
  table.cells.assign(n, spec.table.cells_per_dim);

  std::vector<double> half_width(n);
  for (std::size_t d = 0; d < n; ++d) {
    half_width[d] = 0.5 * (table.domain[d].hi - table.domain[d].lo) /
                    static_cast<double>(table.cells[d]);
  }

  // Per-cell conservative deadline = the box walk at the cell center with
  // each spread inflated by the worst-case center distance
  // infl_i(t) = Σ_j |A^t_{i,j}| h_j / 2 — see the file-header contract.
  // The inflated checks run on the same support walk as live serving.
  const SupportTable inflated = walker.widened_table(half_width);

  const std::size_t total = cell_product(table.cells);
  table.deadlines.resize(total);
  Vec center(n);
  for (std::size_t linear = 0; linear < total; ++linear) {
    std::size_t rem = linear;
    for (std::size_t d = n; d-- > 0;) {
      const std::size_t idx = rem % table.cells[d];
      rem /= table.cells[d];
      center[d] = table.domain[d].lo +
                  (2.0 * static_cast<double>(idx) + 1.0) * half_width[d];
    }
    bool resolved = false;
    const std::size_t t = support_walk(inflated, center.data(), w_m, resolved);
    table.deadlines[linear] = static_cast<std::uint16_t>(resolved ? t - 1 : w_m);
  }
  return table;
}

std::vector<std::uint8_t> encode_table(const DeadlineTable& table) {
  core::ckpt::SnapshotBuilder builder;
  core::ckpt::Writer& meta = builder.section(kMetaSection);
  meta.u8(static_cast<std::uint8_t>(BackendKind::kBox));  // source backend kind
  meta.u64(table.source_fingerprint);
  meta.u64(table.dim);
  meta.u64(table.max_window);
  for (std::size_t d = 0; d < table.dim; ++d) {
    meta.f64(table.domain[d].lo);
    meta.f64(table.domain[d].hi);
  }
  for (std::size_t d = 0; d < table.dim; ++d) {
    meta.u64(table.cells[d]);
  }
  core::ckpt::Writer& cells = builder.section(kCellSection);
  cells.u64(table.deadlines.size());
  for (const std::uint16_t v : table.deadlines) {
    cells.u8(static_cast<std::uint8_t>(v & 0xff));
    cells.u8(static_cast<std::uint8_t>(v >> 8));
  }
  return builder.finish(table.source_fingerprint);
}

core::Result<DeadlineTable> decode_table(const std::uint8_t* data, std::size_t size) {
  using core::Status;
  using core::StatusCode;
  core::Result<core::ckpt::SnapshotView> view = core::ckpt::SnapshotView::parse(data, size);
  if (!view.is_ok()) return view.status();
  const core::ckpt::SectionView* meta_sec = view.value().find(kMetaSection);
  const core::ckpt::SectionView* cell_sec = view.value().find(kCellSection);
  if (meta_sec == nullptr || cell_sec == nullptr) {
    return Status{StatusCode::kDataLoss, "deadline table: missing section"};
  }

  DeadlineTable table;
  core::ckpt::Reader meta = meta_sec->reader();
  std::uint8_t source = 0;
  std::uint64_t source_fp = 0, dim = 0, max_window = 0;
  if (!meta.u8(source) || !meta.u64(source_fp) || !meta.u64(dim) ||
      !meta.u64(max_window)) {
    return meta.status();
  }
  // Box is the only source backend a table can lower-bound.
  if (source != static_cast<std::uint8_t>(BackendKind::kBox) || dim == 0 ||
      max_window == 0 || max_window > kMaxTableWindow) {
    return Status{StatusCode::kDataLoss, "deadline table: malformed meta section"};
  }
  table.source_fingerprint = source_fp;
  table.dim = static_cast<std::size_t>(dim);
  table.max_window = static_cast<std::size_t>(max_window);
  if (view.value().fingerprint() != table.source_fingerprint) {
    return Status{StatusCode::kDataLoss,
                  "deadline table: header fingerprint does not match meta"};
  }
  std::vector<Interval> dims(table.dim);
  for (std::size_t d = 0; d < table.dim; ++d) {
    if (!meta.f64(dims[d].lo) || !meta.f64(dims[d].hi)) return meta.status();
    if (!dims[d].bounded() || !(dims[d].lo < dims[d].hi)) {
      return Status{StatusCode::kDataLoss, "deadline table: malformed domain"};
    }
  }
  table.domain = Box(std::move(dims));
  table.cells.resize(table.dim);
  for (std::size_t d = 0; d < table.dim; ++d) {
    std::uint64_t c = 0;
    if (!meta.u64(c)) return meta.status();
    table.cells[d] = static_cast<std::size_t>(c);
  }
  if (!meta.at_end()) {
    return Status{StatusCode::kDataLoss, "deadline table: trailing meta bytes"};
  }
  const std::size_t total = cell_product(table.cells);
  if (total == 0) {
    return Status{StatusCode::kDataLoss, "deadline table: cell count out of range"};
  }

  core::ckpt::Reader cells = cell_sec->reader();
  std::uint64_t count = 0;
  if (!cells.u64(count)) return cells.status();
  if (count != total) {
    return Status{StatusCode::kDataLoss,
                  "deadline table: cell payload does not match the grid shape"};
  }
  table.deadlines.resize(total);
  for (std::size_t i = 0; i < total; ++i) {
    std::uint8_t lo = 0, hi = 0;
    if (!cells.u8(lo) || !cells.u8(hi)) return cells.status();
    const std::uint16_t v =
        static_cast<std::uint16_t>(lo | (static_cast<std::uint16_t>(hi) << 8));
    if (v > table.max_window) {
      return Status{StatusCode::kDataLoss,
                    "deadline table: cell deadline exceeds max_window"};
    }
    table.deadlines[i] = v;
  }
  if (!cells.at_end()) {
    return Status{StatusCode::kDataLoss, "deadline table: trailing cell bytes"};
  }
  return table;
}

core::Result<std::unique_ptr<Backend>> make_table_backend(const BackendSpec& spec,
                                                          DeadlineTable table) {
  using core::Status;
  using core::StatusCode;
  if (Status s = validate_grid_shape(spec); !s.is_ok()) return s;
  const std::size_t n = spec.model.state_dim();
  if (table.dim != n || table.max_window != spec.deadline.max_window) {
    return Status{StatusCode::kInvalidInput,
                  "deadline table: table shape does not match the spec"};
  }
  if (table.cells.size() != n ||
      cell_product(table.cells) != table.deadlines.size() ||
      table.deadlines.empty()) {
    return Status{StatusCode::kInvalidInput,
                  "deadline table: inconsistent grid payload"};
  }
  for (std::size_t d = 0; d < n; ++d) {
    if (table.cells[d] != spec.table.cells_per_dim ||
        table.domain[d].lo != spec.table.domain[d].lo ||
        table.domain[d].hi != spec.table.domain[d].hi) {
      return Status{StatusCode::kInvalidInput,
                    "deadline table: grid does not match the spec's table config"};
    }
  }
  bool all_zero = true;
  for (const std::uint16_t v : table.deadlines) {
    if (v > table.max_window) {
      return Status{StatusCode::kInvalidInput,
                    "deadline table: cell deadline exceeds max_window"};
    }
    all_zero = all_zero && v == 0;
  }
  // Each cell's walk is inflated by the cell's half-width; on a coarse grid
  // that swallows the whole horizon, and a table whose every deadline is 0
  // would hold every stream at window 0.
  if (all_zero) {
    return Status{StatusCode::kInvalidInput,
                  "deadline table: every deadline is 0 (the grid is too coarse "
                  "for the cell inflation; raise the cell count)"};
  }
  if (spec_fingerprint(source_variant(spec)) != table.source_fingerprint) {
    return Status{StatusCode::kInvalidInput,
                  "deadline table: precomputed for a different configuration"};
  }
  try {
    return std::unique_ptr<Backend>(new TableBackend(
        std::move(table), spec.safe_set, spec.deadline, spec_fingerprint(spec)));
  } catch (const std::exception&) {
    return Status{StatusCode::kInvalidInput,
                  "deadline table: backend construction rejected its inputs"};
  }
}

TableBackend::TableBackend(DeadlineTable table, Box safe_set, DeadlineConfig config,
                           std::uint64_t fingerprint)
    : Backend(std::move(safe_set), config, table.dim, fingerprint),
      table_(std::move(table)) {
  if (table_.dim == 0 || table_.cells.size() != table_.dim ||
      cell_product(table_.cells) != table_.deadlines.size() ||
      table_.deadlines.empty() || table_.max_window != config_.max_window) {
    throw std::invalid_argument("TableBackend: inconsistent deadline table");
  }
  axes_.resize(table_.dim);
  std::size_t stride = 1;
  for (std::size_t d = table_.dim; d-- > 0;) {
    axes_[d].lo = table_.domain[d].lo;
    axes_[d].inv_width = static_cast<double>(table_.cells[d]) /
                         (table_.domain[d].hi - table_.domain[d].lo);
    axes_[d].max_cell = static_cast<double>(table_.cells[d] - 1);
    axes_[d].stride = stride;
    axes_[d].count = table_.cells[d];
    stride *= table_.cells[d];
  }
}

std::size_t TableBackend::walk_(const Vec& x0, std::size_t cap,
                                bool& resolved) const noexcept {
  // One clamped nearest-cell lookup; the budget cap never binds because the
  // answer is always resolved in O(1).
  (void)cap;
  std::size_t linear = 0;
  const Axis* const axes = axes_.data();
  const std::size_t dim = axes_.size();
  for (std::size_t d = 0; d < dim; ++d) {
    double raw = (x0[d] - axes[d].lo) * axes[d].inv_width;
    std::size_t cell;
#ifdef AWD_MUT_REACH_TABLE_CLAMP_OFF
    // [mutation-smoke seeded bug] wraps out-of-domain queries around the
    // grid instead of clamping to the boundary cell, serving a deadline for
    // an unrelated region of the state space.
    const double nn = static_cast<double>(axes[d].count);
    double wrapped = raw - std::floor(raw / nn) * nn;
    if (!(wrapped >= 0.0 && wrapped < nn)) wrapped = 0.0;
    cell = static_cast<std::size_t>(wrapped);
#else
    // Branchless clamp entirely in double arithmetic (min/max instructions),
    // casting only after raw is inside [0, count - 1] so the conversion is
    // always defined; truncation then matches floor.
    if (!(raw > 0.0)) raw = 0.0;
    if (raw > axes[d].max_cell) raw = axes[d].max_cell;
    cell = static_cast<std::size_t>(raw);
#endif
    linear += cell * axes[d].stride;
  }
  resolved = true;
  return table_.deadlines[linear];
}

std::size_t TableBackend::checks_spent_(std::size_t deadline, bool resolved,
                                        std::size_t cap) const noexcept {
  (void)deadline;
  (void)resolved;
  (void)cap;
  return 1;
}

void TableBackend::serialize(core::ckpt::Writer& w) const {
  Backend::serialize(w);
  w.block(encode_table(table_));
}

}  // namespace awd::reach
