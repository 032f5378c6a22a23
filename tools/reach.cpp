// awd reach — offline deadline-table precompute and inspection
// (DESIGN.md §17).
//
// `build` derives the case's reach::BackendSpec, runs the grid precompute
// (every cell's deadline from an inflated box walk at the cell center, so
// the stored value lower-bounds the box backend everywhere in the cell),
// and ships the table through the core::ckpt codec — header fingerprint =
// the box source spec's fingerprint, CRC-framed sections, the same
// validation pipeline every other snapshot passes.
//
// `info` decodes a table file structurally (no case needed) and prints its
// provenance: source fingerprint, grid shape, domain, deadline
// histogram bounds.  `check` re-derives the spec from a case and verifies
// the file was precomputed for exactly that configuration — the operator
// form of the load-time rejection TableBackend enforces.
//
// Exit codes: 0 success, 1 invalid/mismatched table (a table whose every
// deadline is 0 included), 2 usage, unknown case or I/O error.
#include <algorithm>

#include "cli.hpp"

namespace awd::cli {
namespace {

using ull = unsigned long long;

void print_table(const DeadlineTable& t) {
  std::printf("  source spec      %016llx\n", static_cast<ull>(t.source_fingerprint));
  std::printf("  state dim        %zu\n", t.dim);
  std::printf("  max window       %zu\n", t.max_window);
  std::size_t cells = 1;
  std::printf("  grid             ");
  for (std::size_t d = 0; d < t.dim; ++d) {
    std::printf("%s%zu", d == 0 ? "" : " x ", t.cells[d]);
    cells *= t.cells[d];
  }
  std::printf(" = %zu cells (%zu bytes of deadlines)\n", cells,
              t.deadlines.size() * sizeof(std::uint16_t));
  for (std::size_t d = 0; d < t.dim; ++d) {
    std::printf("  domain[%zu]        [%.17g, %.17g]\n", d, t.domain[d].lo, t.domain[d].hi);
  }
  const auto [lo, hi] = std::minmax_element(t.deadlines.begin(), t.deadlines.end());
  std::printf("  deadlines        min %u, max %u\n", t.deadlines.empty() ? 0u : *lo,
              t.deadlines.empty() ? 0u : *hi);
}

/// The spec `DetectionSystem::create` would derive for this case, with the
/// grid overrides applied on top; a case the overrides make invalid is
/// exit 2.
BackendSpec derive_spec(const std::string& case_key, const Args& args) {
  SimulatorCase scase = lookup_case(case_key);
  scase.reach_backend = BackendKind::kTable;
  if (const std::size_t cells = args.u64("--cells", 0); cells != 0) {
    scase.reach_table_cells = cells;
  }
  if (const std::size_t w = args.u64("--max-window", 0); w != 0) scase.max_window = w;
  const double init_radius = args.real("--init-radius", 0.0);
  if (Status s = scase.check(); !s.is_ok()) throw Exit{kUsage, case_key + ": " + describe(s)};
  Result<BackendSpec> spec = make_backend_spec(scase, init_radius, 0);
  if (!spec.is_ok()) throw Exit{kUsage, case_key + ": " + describe(spec.status())};
  return std::move(spec).value();
}

}  // namespace

int run_reach(const Args& args) {
  const std::string& command = args.at(0);
  if (command == "info") {
    const std::string& path = args.at(1);
    if (args.count() != 2) usage();
    const std::vector<std::uint8_t> bytes = read_input(path);
    const Result<DeadlineTable> table = decode_table(bytes);
    if (!table.is_ok()) fail(path, table.status());
    std::printf("%s: awd deadline table, %zu bytes\n", path.c_str(), bytes.size());
    print_table(table.value());
    return kOk;
  }
  const std::string& case_key = args.at(1);
  const std::string& path = args.at(2);
  if (args.count() != 3 || (command != "build" && command != "check")) usage();
  const BackendSpec spec = derive_spec(case_key, args);
  const ull fingerprint = spec_fingerprint(spec);

  if (command == "build") {
    // The factory builds the table and runs the load-time validation on it,
    // so a table serving would refuse (say, every deadline 0) is never written.
    const Result<std::unique_ptr<Backend>> backend = make_backend(spec);
    if (!backend.is_ok()) fail("build", backend.status());
    const DeadlineTable& table = static_cast<const TableBackend&>(*backend.value()).table();
    if (Status s = core::ckpt::write_file(path, encode_table(table)); !s.is_ok()) {
      throw Exit{kUsage, path + ": " + describe(s)};
    }
    std::printf("wrote %s (spec %016llx)\n", path.c_str(), fingerprint);
    print_table(table);
    return kOk;
  }

  // check: decode the file and run the exact load-time validation serving
  // would apply (fingerprint, grid shape, domain, deadline bounds, not all
  // zero).
  Result<DeadlineTable> table = decode_table(read_input(path));
  if (!table.is_ok()) {
    std::printf("FAIL %s: corrupt or malformed table\n", path.c_str());
    fail(path, table.status());
  }
  const Result<std::unique_ptr<Backend>> backend =
      make_table_backend(spec, std::move(table).value());
  if (!backend.is_ok()) {
    std::printf("FAIL %s: table rejected for case '%s'\n", path.c_str(), case_key.c_str());
    fail(path, backend.status());
  }
  std::printf("PASS %s: matches case '%s' (spec %016llx)\n", path.c_str(), case_key.c_str(),
              fingerprint);
  return kOk;
}

}  // namespace awd::cli
