// Deadline-table round-trip (DESIGN.md §17): precompute → ckpt encode →
// decode → serve must be bitwise lossless — the decoded backend answers
// every grid cell exactly like the freshly built one — and the codec must
// reject tampered bytes and tables precomputed for a different
// configuration instead of serving them.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/ckpt.hpp"
#include "core/config.hpp"
#include "reach/backend.hpp"
#include "reach/table.hpp"

namespace awd::reach {
namespace {

using core::StatusCode;

BackendSpec table_spec(const char* plant, std::size_t cells) {
  core::SimulatorCase scase = core::simulator_case(plant);
  scase.reach_backend = BackendKind::kTable;
  scase.reach_table_cells = cells;
  return core::make_backend_spec(scase, /*init_radius=*/0.0, /*budget_steps=*/0);
}

/// Center of cell `linear` (row-major, last dimension fastest).
Vec cell_center(const DeadlineTable& t, std::size_t linear) {
  Vec x(t.dim);
  for (std::size_t d = t.dim; d-- > 0;) {
    const std::size_t count = t.cells[d];
    const std::size_t idx = linear % count;
    linear /= count;
    const double width = (t.domain[d].hi - t.domain[d].lo) / static_cast<double>(count);
    x[d] = t.domain[d].lo + (static_cast<double>(idx) + 0.5) * width;
  }
  return x;
}

TEST(TableRoundTrip, EncodeDecodeServesBitwiseAtEveryCell) {
  for (const char* plant : {"aircraft_pitch", "series_rlc"}) {
    SCOPED_TRACE(plant);
    const BackendSpec spec = table_spec(plant, 5);

    core::Result<DeadlineTable> built = build_table(spec);
    ASSERT_TRUE(built.is_ok());
    const DeadlineTable original = std::move(built).value();

    const std::vector<std::uint8_t> bytes = encode_table(original);
    core::Result<DeadlineTable> decoded_r = decode_table(bytes);
    ASSERT_TRUE(decoded_r.is_ok()) << decoded_r.status().message();
    const DeadlineTable decoded = std::move(decoded_r).value();

    // Field-for-field identity of the decoded grid.
    EXPECT_EQ(decoded.source_fingerprint, original.source_fingerprint);
    EXPECT_EQ(decoded.dim, original.dim);
    EXPECT_EQ(decoded.max_window, original.max_window);
    ASSERT_EQ(decoded.cells, original.cells);
    for (std::size_t d = 0; d < original.dim; ++d) {
      EXPECT_EQ(decoded.domain[d].lo, original.domain[d].lo);  // bitwise, not approx
      EXPECT_EQ(decoded.domain[d].hi, original.domain[d].hi);
    }
    ASSERT_EQ(decoded.deadlines, original.deadlines);

    // Serving identity: fresh-build backend vs decoded backend, every cell.
    core::Result<std::unique_ptr<Backend>> fresh_r =
        make_table_backend(spec, original);
    core::Result<std::unique_ptr<Backend>> loaded_r =
        make_table_backend(spec, decoded);
    ASSERT_TRUE(fresh_r.is_ok());
    ASSERT_TRUE(loaded_r.is_ok());
    const std::unique_ptr<Backend> fresh = std::move(fresh_r).value();
    const std::unique_ptr<Backend> loaded = std::move(loaded_r).value();
    EXPECT_EQ(fresh->fingerprint(), loaded->fingerprint());
    for (std::size_t cell = 0; cell < original.deadlines.size(); ++cell) {
      const Vec x = cell_center(original, cell);
      const std::size_t expect = original.deadlines[cell];
      ASSERT_EQ(fresh->estimate(x), expect) << "fresh backend, cell " << cell;
      ASSERT_EQ(loaded->estimate(x), expect) << "decoded backend, cell " << cell;
    }
  }
}

TEST(TableRoundTrip, TamperedBytesNeverServe) {
  const BackendSpec spec = table_spec("series_rlc", 4);
  const DeadlineTable original = build_table(spec).value();
  const std::vector<std::uint8_t> bytes = encode_table(original);

  // Flip one bit at a spread of offsets across header, meta and cell
  // sections.  Either the codec's CRC/framing rejects the image outright,
  // or (for bytes outside any checksummed payload that still decode) the
  // spec cross-check refuses to build a backend from it.
  for (std::size_t off = 0; off < bytes.size(); off += 3) {
    std::vector<std::uint8_t> tampered = bytes;
    tampered[off] ^= 0x40;
    core::Result<DeadlineTable> decoded = decode_table(tampered);
    if (!decoded.is_ok()) continue;
    core::Result<std::unique_ptr<Backend>> served =
        make_table_backend(spec, std::move(decoded).value());
    EXPECT_FALSE(served.is_ok()) << "flipped byte " << off << " served anyway";
  }

  // Truncation at any prefix is a decode failure, not UB.
  for (const std::size_t keep : {std::size_t{0}, std::size_t{4}, bytes.size() / 2,
                                 bytes.size() - 1}) {
    EXPECT_FALSE(decode_table(bytes.data(), keep).is_ok()) << "kept " << keep;
  }

  // A validly framed image whose meta section (written first) names a
  // source backend other than box — kind 1 is the retired ellipsoid — is
  // corrupt, not servable.  Source 0 re-frames to a loadable image, so the
  // rejection is the source byte's alone.
  const core::ckpt::SnapshotView view = core::ckpt::SnapshotView::parse(bytes).value();
  for (const std::uint8_t source : {std::uint8_t{0}, std::uint8_t{1}, std::uint8_t{2}}) {
    core::ckpt::SnapshotBuilder builder;
    for (const core::ckpt::SectionView& sec : view.sections()) {
      std::vector<std::uint8_t> payload(sec.data, sec.data + sec.size);
      if (&sec == &view.sections().front()) payload.at(0) = source;
      builder.section(sec.id).bytes(payload.data(), payload.size());
    }
    const core::Result<DeadlineTable> decoded =
        decode_table(builder.finish(view.fingerprint()));
    if (source == 0) {
      EXPECT_TRUE(decoded.is_ok()) << decoded.status().message();
    } else {
      ASSERT_FALSE(decoded.is_ok()) << "source kind " << int{source};
      EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
    }
  }
}

TEST(TableRoundTrip, ForeignConfigurationRejectedAtLoad) {
  const BackendSpec spec = table_spec("series_rlc", 4);
  const DeadlineTable table = build_table(spec).value();

  {  // Same plant, different ε: the fingerprint cross-check must fire.
    BackendSpec other = spec;
    other.eps += 0.01;
    core::Result<std::unique_ptr<Backend>> r = make_table_backend(other, table);
    ASSERT_FALSE(r.is_ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidInput);
    EXPECT_NE(r.status().message().find("different configuration"),
              std::string_view::npos);
  }
  {  // Different grid resolution: shape cross-check.
    BackendSpec other = spec;
    other.table.cells_per_dim += 1;
    EXPECT_FALSE(make_table_backend(other, table).is_ok());
  }
  {  // Different horizon: the cells were capped at the wrong w_m.
    BackendSpec other = spec;
    other.deadline.max_window += 5;
    EXPECT_FALSE(make_table_backend(other, table).is_ok());
  }
  {  // A whole different plant.
    const BackendSpec other = table_spec("aircraft_pitch", 4);
    EXPECT_FALSE(make_table_backend(other, table).is_ok());
  }
  // The spec it was built for still loads — the rejections above are not
  // a stuck-closed gate.
  EXPECT_TRUE(make_table_backend(spec, table).is_ok());
}

}  // namespace
}  // namespace awd::reach
