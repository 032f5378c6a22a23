// make_backend factory contract (DESIGN.md §17): typed kInvalidInput on
// every malformed spec (never an exception across the Result boundary),
// kind dispatch to the right concrete backend, and spec-fingerprint
// stability — the identity the serving engine's per-family sharing and the
// precomputed table files both key on.
#include <gtest/gtest.h>

#include <limits>
#include <memory>

#include "core/config.hpp"
#include "reach/backend.hpp"
#include "reach/deadline.hpp"
#include "reach/table.hpp"

namespace awd::reach {
namespace {

using core::StatusCode;

/// A valid table-capable spec for a small plant; every test mutates a copy.
BackendSpec base_spec() {
  core::SimulatorCase scase = core::simulator_case("series_rlc");
  scase.reach_backend = BackendKind::kTable;
  scase.reach_table_cells = 6;
  return core::make_backend_spec(scase, /*init_radius=*/0.05, /*budget_steps=*/0);
}

void expect_invalid(const BackendSpec& spec, const char* why) {
  const core::Result<std::unique_ptr<Backend>> r = make_backend(spec);
  ASSERT_FALSE(r.is_ok()) << why;
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidInput) << why;
}

TEST(BackendFactory, RejectsMalformedSpecsWithTypedStatus) {
  {
    BackendSpec spec = base_spec();
    spec.u_range = Box::unbounded(spec.model.input_dim());
    expect_invalid(spec, "unbounded u_range");
  }
  {
    BackendSpec spec = base_spec();
    spec.u_range = Box::unbounded(spec.model.input_dim() + 1);
    expect_invalid(spec, "u_range dimension mismatch");
  }
  {
    BackendSpec spec = base_spec();
    spec.eps = -0.5;
    expect_invalid(spec, "negative eps");
  }
  {
    BackendSpec spec = base_spec();
    spec.safe_set = Box::unbounded(spec.model.state_dim() + 1);
    expect_invalid(spec, "safe set dimension mismatch");
  }
  {
    BackendSpec spec = base_spec();
    spec.deadline.init_radius = -1.0;
    expect_invalid(spec, "negative init_radius");
  }
  {
    BackendSpec spec = base_spec();
    spec.deadline.max_window = 0;
    expect_invalid(spec, "zero horizon");
  }
  {
    BackendSpec spec = base_spec();
    spec.kind = BackendKind::kEllipsoid;
    expect_invalid(spec, "retired kind 1");
  }
  {
    BackendSpec spec = base_spec();
    spec.table.cells_per_dim = 0;
    expect_invalid(spec, "zero-cell grid");
  }
  {
    BackendSpec spec = base_spec();
    spec.table.cells_per_dim = 2048;  // 2048^2 cells > kMaxTableCells
    expect_invalid(spec, "grid over the cell cap");
  }
  {
    BackendSpec spec = base_spec();
    spec.table.domain = Box::unbounded(spec.model.state_dim());
    expect_invalid(spec, "unbounded table domain");
  }
  {
    BackendSpec spec = base_spec();
    spec.deadline.max_window = kMaxTableWindow + 1;
    expect_invalid(spec, "horizon beyond the u16 cell encoding");
  }
}

TEST(BackendFactory, DispatchesOnKindAndStampsTheFingerprint) {
  const struct {
    BackendKind kind;
    std::string_view name;
  } cases[] = {{BackendKind::kBox, "box"}, {BackendKind::kTable, "table"}};
  for (const auto& c : cases) {
    BackendSpec spec = base_spec();
    spec.kind = c.kind;
    core::Result<std::unique_ptr<Backend>> r = make_backend(spec);
    ASSERT_TRUE(r.is_ok()) << c.name;
    const std::unique_ptr<Backend> backend = std::move(r).value();
    EXPECT_EQ(backend->kind(), c.kind);
    EXPECT_EQ(backend->name(), c.name);
    EXPECT_EQ(backend->fingerprint(), spec_fingerprint(spec));
    EXPECT_EQ(backend->state_dim(), spec.model.state_dim());
  }
  // The concrete types the factory dispatches to.
  BackendSpec spec = base_spec();
  spec.kind = BackendKind::kBox;
  EXPECT_NE(dynamic_cast<BoxBackend*>(make_backend(spec).value().get()), nullptr);
  spec.kind = BackendKind::kTable;
  EXPECT_NE(dynamic_cast<TableBackend*>(make_backend(spec).value().get()), nullptr);
}

TEST(BackendFactory, FingerprintTracksAnswerChangingKnobsOnly) {
  const BackendSpec spec = base_spec();
  EXPECT_EQ(spec_fingerprint(spec), spec_fingerprint(spec)) << "not deterministic";

  BackendSpec other = spec;
  other.eps += 1e-6;
  EXPECT_NE(spec_fingerprint(other), spec_fingerprint(spec)) << "eps ignored";

  other = spec;
  other.deadline.max_window += 1;
  EXPECT_NE(spec_fingerprint(other), spec_fingerprint(spec)) << "horizon ignored";

  other = spec;
  other.kind = BackendKind::kBox;
  EXPECT_NE(spec_fingerprint(other), spec_fingerprint(spec)) << "kind ignored";

  // Table grid knobs are part of the table backend's identity...
  other = spec;
  other.table.cells_per_dim += 1;
  EXPECT_NE(spec_fingerprint(other), spec_fingerprint(spec))
      << "grid shape ignored for kTable";

  // ...but must NOT perturb a box backend's identity, or the serving
  // engine's sharing key would split identical estimators.
  BackendSpec box_a = spec;
  box_a.kind = BackendKind::kBox;
  BackendSpec box_b = box_a;
  box_b.table.cells_per_dim += 3;
  box_b.table.domain = Box::unbounded(0);
  EXPECT_EQ(spec_fingerprint(box_a), spec_fingerprint(box_b))
      << "kBox fingerprint depends on table-only knobs";
}

TEST(BackendFactory, CheckedPathTypedErrorsAndTableBudgetImmunity) {
  BackendSpec spec = base_spec();
  spec.deadline.budget_steps = 1;  // brutal budget: one reach query per period

  spec.kind = BackendKind::kBox;
  const std::unique_ptr<Backend> box = make_backend(spec).value();
  spec.kind = BackendKind::kTable;
  const std::unique_ptr<Backend> table = make_backend(spec).value();

  const Vec probe = spec.table.domain.center();

  // Mis-shaped and non-finite seeds come back as kInvalidInput, never throw.
  const Vec short_seed(spec.model.state_dim() + 1, 0.0);
  EXPECT_EQ(box->estimate_checked(short_seed).status().code(),
            StatusCode::kInvalidInput);
  Vec nan_seed = probe;
  nan_seed[0] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(table->estimate_checked(nan_seed).status().code(),
            StatusCode::kInvalidInput);

  // The table resolves every query in one lookup, so the budget never binds
  // there — while the walk backend with budget 1 must yield whenever the
  // boundary is further than one step out.
  const core::Result<std::size_t> via_table = table->estimate_checked(probe);
  ASSERT_TRUE(via_table.is_ok());
  EXPECT_EQ(via_table.value(), table->estimate(probe));
  const core::Result<std::size_t> via_box = box->estimate_checked(probe);
  if (!via_box.is_ok()) {
    EXPECT_EQ(via_box.status().code(), StatusCode::kBudgetExceeded);
  }
}

}  // namespace
}  // namespace awd::reach
