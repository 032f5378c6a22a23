// reach_probes.hpp — the fixed table-vs-box setup the reach quality checks
// measure on.
//
// The table conservatism floor (tests/reach, ctest label `reach`) and the
// table speedup floor (bench/bench_reach_backends) must measure the same
// thing, so both build it here: one table spec per seed plant and a fixed
// cloud of 256 probe states drawn by xorshift over the inner quarter of the
// table's trusted domain.  Everything is deterministic; the ratio this
// computes is a pure function of the plant.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "linalg/vec.hpp"
#include "reach/backend.hpp"

namespace awd::testkit {

/// The plant's table-backend spec: its Table 1 case with a grid of 8 cells
/// per dimension up to 3 state dimensions, else 4.
[[nodiscard]] reach::BackendSpec table_probe_spec(const std::string& plant);

/// A box walk and a table backend built from table_probe_spec, plus the
/// probe cloud both are queried on.
struct TableProbeSetup {
  std::string plant;
  std::unique_ptr<reach::Backend> box;
  std::unique_ptr<reach::Backend> table;
  std::vector<linalg::Vec> probes;
};

[[nodiscard]] TableProbeSetup make_table_probe_setup(const std::string& plant);

/// Mean (t_table + 1) / (t_box + 1) over the probe cloud: the tightness
/// the table keeps relative to the exact walk, in (0, 1] when it is sound.
[[nodiscard]] double table_conservatism(const TableProbeSetup& s);

}  // namespace awd::testkit
