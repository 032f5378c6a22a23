// awd_reach — offline deadline-table precompute and inspection
// (DESIGN.md §17).
//
// Usage: awd_reach build <case_key> <file> [--cells N] [--init-radius R]
//                        [--max-window W]
//        awd_reach info  <file>
//        awd_reach check <case_key> <file> [--cells N] [--init-radius R]
//                        [--max-window W]
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
// Exit codes: 0 success, 1 invalid/mismatched table, 2 usage or I/O error.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "awd.hpp"

namespace {

using namespace awd;

int usage() {
  std::fprintf(stderr,
               "usage: awd_reach build <case_key> <file> [--cells N] "
               "[--init-radius R] [--max-window W]\n"
               "       awd_reach info  <file>\n"
               "       awd_reach check <case_key> <file> [--cells N] "
               "[--init-radius R] [--max-window W]\n");
  return 2;
}

int fail_status(const char* verb, const Status& s) {
  std::fprintf(stderr, "awd_reach: %s: [%.*s] %.*s\n", verb,
               static_cast<int>(core::to_string(s.code()).size()),
               core::to_string(s.code()).data(),
               static_cast<int>(s.message().size()), s.message().data());
  return 1;
}

void print_table(const DeadlineTable& t) {
  std::printf("  source spec      %016llx\n",
              static_cast<unsigned long long>(t.source_fingerprint));
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
    std::printf("  domain[%zu]        [%.17g, %.17g]\n", d, t.domain[d].lo,
                t.domain[d].hi);
  }
  std::uint16_t lo = t.deadlines.empty() ? 0 : t.deadlines[0];
  std::uint16_t hi = lo;
  for (const std::uint16_t v : t.deadlines) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  std::printf("  deadlines        min %u, max %u\n", lo, hi);
}

/// The spec `DetectionSystem::create` would derive for this case, with the
/// tool's grid overrides applied on top.
Result<BackendSpec> derive_spec(const std::string& case_key, double init_radius,
                                std::size_t max_window, std::size_t cells) {
  SimulatorCase scase;
  try {
    scase = simulator_case(case_key);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "awd_reach: %s\n", e.what());
    return Status{StatusCode::kInvalidInput, "unknown case key"};
  }
  scase.reach_backend = BackendKind::kTable;
  if (cells != 0) scase.reach_table_cells = cells;
  if (max_window != 0) scase.max_window = max_window;
  if (Status s = scase.check(); !s.is_ok()) return s;
  return make_backend_spec(scase, init_radius, 0);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string command = argv[1];

  if (command == "info") {
    const std::string path = argv[2];
    Result<std::vector<std::uint8_t>> bytes = core::ckpt::read_file(path);
    if (!bytes.is_ok()) return fail_status(path.c_str(), bytes.status()), 2;
    Result<DeadlineTable> table = decode_table(bytes.value());
    if (!table.is_ok()) return fail_status(path.c_str(), table.status());
    std::printf("%s: awd deadline table, %zu bytes\n", path.c_str(),
                bytes.value().size());
    print_table(table.value());
    return 0;
  }

  if (command != "build" && command != "check") return usage();
  if (argc < 4) return usage();
  const std::string case_key = argv[2];
  const std::string path = argv[3];
  std::size_t cells = 0;
  std::size_t max_window = 0;
  double init_radius = 0.0;
  for (int i = 4; i < argc; ++i) {
    const char* arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (std::strcmp(arg, "--cells") == 0 && has_value) {
      cells = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (std::strcmp(arg, "--max-window") == 0 && has_value) {
      max_window = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (std::strcmp(arg, "--init-radius") == 0 && has_value) {
      init_radius = std::strtod(argv[++i], nullptr);
    } else {
      return usage();
    }
  }

  Result<BackendSpec> spec = derive_spec(case_key, init_radius, max_window, cells);
  if (!spec.is_ok()) {
    fail_status(case_key.c_str(), spec.status());
    return 2;
  }

  if (command == "build") {
    Result<DeadlineTable> table = build_table(spec.value());
    if (!table.is_ok()) return fail_status("build", table.status());
    if (Status s = core::ckpt::write_file(path, encode_table(table.value()));
        !s.is_ok()) {
      return fail_status(path.c_str(), s), 2;
    }
    std::printf("wrote %s (spec %016llx)\n", path.c_str(),
                static_cast<unsigned long long>(spec_fingerprint(spec.value())));
    print_table(table.value());
    return 0;
  }

  // check: decode the file and run the exact load-time validation serving
  // would apply (fingerprint, grid shape, domain, deadline bounds).
  Result<std::vector<std::uint8_t>> bytes = core::ckpt::read_file(path);
  if (!bytes.is_ok()) return fail_status(path.c_str(), bytes.status()), 2;
  Result<DeadlineTable> table = decode_table(bytes.value());
  if (!table.is_ok()) {
    std::printf("FAIL %s: corrupt or malformed table\n", path.c_str());
    return fail_status(path.c_str(), table.status());
  }
  Result<std::unique_ptr<Backend>> backend =
      make_table_backend(spec.value(), std::move(table).value());
  if (!backend.is_ok()) {
    std::printf("FAIL %s: table does not match case '%s'\n", path.c_str(),
                case_key.c_str());
    return fail_status(path.c_str(), backend.status());
  }
  std::printf("PASS %s: matches case '%s' (spec %016llx)\n", path.c_str(),
              case_key.c_str(),
              static_cast<unsigned long long>(spec_fingerprint(spec.value())));
  return 0;
}
