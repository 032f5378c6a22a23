// bench_table2_matrix — reproduces Table 2: the number of false-positive
// experiments (#FP) and deadline-miss experiments (#DM) out of 100 runs,
// for every combination of the 5 simulators x 3 attack scenarios x
// {adaptive, fixed} strategies.
//
// Expected shape (paper): in (nearly) every cell the adaptive strategy has
// more FP experiments but (near-)zero deadline misses, while the fixed
// strategy has fewer FPs and misses most deadlines.
#include <cstdio>

#include "bench_util.hpp"
#include "core/experiment.hpp"
#include "obs/obs.hpp"

int main(int argc, char** argv) {
  const awd::obs::ObsSession obs_session(argc, argv);
  using namespace awd;

  // Worker threads for the 100-run cells: --threads=N / AWD_THREADS, 0 = all
  // cores.  The ordered reduction keeps every cell bit-identical to serial.
  const std::size_t threads = bench::threads_arg(argc, argv);

  bench::heading(
      "Table 2 — #FP and #DM out of 100 runs, adaptive vs fixed window\n"
      "(#FP: runs with false-positive rate > 1%; #DM: runs missing the deadline)");

  const core::AttackKind attacks[] = {core::AttackKind::kBias, core::AttackKind::kDelay,
                                      core::AttackKind::kReplay};

  core::MetricsOptions options;
  // Table 2 says only "a threshold"; 1% separates the strategies the way
  // the paper reports (Fig. 7's explicit 10% applies to that sweep only).
  options.fp_threshold = 0.01;
  options.warmup = 100;  // exclude controller start-up transients from FP counting

  std::printf("\n%-20s %-8s %-10s %5s %5s %12s\n", "Simulator", "Attack", "Strategy", "#FP",
              "#DM", "mean delay");
  for (const auto& scase : core::table1_cases()) {
    for (core::AttackKind attack : attacks) {
      const core::CellResult cell = core::run_cell({.scase = scase,
                                                    .attack = attack,
                                                    .runs = 100,
                                                    .base_seed = 2022,
                                                    .metrics = options,
                                                    .threads = threads})
                                        .value();
      std::printf("%-20s %-8s %-10s %5zu %5zu %12.1f\n", scase.display_name.c_str(),
                  std::string(core::to_string(attack)).c_str(), "Adaptive",
                  cell.fp_adaptive, cell.dm_adaptive, cell.mean_delay_adaptive);
      std::printf("%-20s %-8s %-10s %5zu %5zu %12.1f\n", "", "", "Fixed", cell.fp_fixed,
                  cell.dm_fixed, cell.mean_delay_fixed);
    }
  }
  return 0;
}
