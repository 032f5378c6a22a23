#include "testkit/reach_probes.hpp"

#include <cstdint>
#include <utility>

#include "core/config.hpp"

namespace awd::testkit {

reach::BackendSpec table_probe_spec(const std::string& plant) {
  core::SimulatorCase scase = core::simulator_case(plant);
  scase.reach_backend = reach::BackendKind::kTable;
  scase.reach_table_cells = scase.model.state_dim() <= 3 ? 8 : 4;
  return core::make_backend_spec(scase, /*init_radius=*/0.0, /*budget_steps=*/0);
}

TableProbeSetup make_table_probe_setup(const std::string& plant) {
  TableProbeSetup s;
  s.plant = plant;
  reach::BackendSpec spec = table_probe_spec(plant);
  const reach::Box domain = spec.table.domain;

  spec.kind = reach::BackendKind::kBox;
  s.box = reach::make_backend(spec).value();
  spec.kind = reach::BackendKind::kTable;
  s.table = reach::make_backend(spec).value();

  // Probe the inner quarter of the trusted domain: deadline seeds are by
  // construction trusted states — the pipeline only reseeds from states it
  // still believes, which cluster near the reference trajectory the table
  // domain is centered on.  There the walk runs deep (avg deadline 12+ steps
  // on aircraft_pitch vs 8.6 at half-domain); the uniform-over-domain
  // alternative spends most probes next to the boundary, where any walk
  // exits after a step or two and a timing comparison measures dispatch
  // overhead instead of the walk.
  const std::size_t n = spec.model.state_dim();
  std::uint64_t rng = 0x9e3779b97f4a7c15ULL;
  for (int k = 0; k < 256; ++k) {
    linalg::Vec x(n);
    for (std::size_t i = 0; i < n; ++i) {
      rng ^= rng << 13;
      rng ^= rng >> 7;
      rng ^= rng << 17;
      const double unit =
          static_cast<double>(rng >> 11) / static_cast<double>(1ULL << 52) -
          1.0;  // [-1, 1)
      x[i] = domain[i].center() + 0.25 * unit * domain[i].half_width();
    }
    s.probes.push_back(std::move(x));
  }
  return s;
}

double table_conservatism(const TableProbeSetup& s) {
  double sum = 0.0;
  for (const linalg::Vec& x : s.probes) {
    sum += static_cast<double>(s.table->estimate(x) + 1) /
           static_cast<double>(s.box->estimate(x) + 1);
  }
  return sum / static_cast<double>(s.probes.size());
}

}  // namespace awd::testkit
