// mutation_smoke.cpp — does the property harness actually catch bugs?
//
// CMake builds this driver several times: once as a control against the
// pristine library, and once per seeded mutant with exactly one AWD_MUT_*
// macro defined.  Each mutant executable compiles its own copy of the one
// translation unit its macro lives in (tests/prop/CMakeLists.txt maps them),
// so the library archive stays pristine and the mutation never leaks into
// other targets.
//
// Exit code 0 means the expectation held:
//   * control build (no AWD_MUT_EXPECT_CAUGHT): every trial passes;
//   * mutant build (AWD_MUT_EXPECT_CAUGHT): at least one property fails —
//     a mutant surviving the whole catalogue is a harness bug.
#include <iostream>
#include <string>

#include "testkit/property.hpp"
#include "testkit/runner.hpp"

int main() {
  awd::testkit::RunnerOptions options;
  options.seed = 0x5eed2022;
  options.trials = 40;
  options.shrink = false;  // speed: the verdict matters, not the minimization
  options.max_failures = 1;

  const awd::testkit::RunReport report = awd::testkit::run_properties(options);

  std::size_t caught_by = 0;
  for (const awd::testkit::PropertyReport& p : report.properties) {
    if (p.failures == 0) continue;
    ++caught_by;
    std::cout << "caught by " << p.name << " (" << p.failures << "/" << p.trials
              << " trials";
    if (!p.failure_details.empty()) {
      std::cout << "; e.g. " << p.failure_details.front().message;
    }
    std::cout << ")\n";
  }

#ifdef AWD_MUT_EXPECT_CAUGHT
  if (caught_by == 0) {
    std::cout << "MUTANT SURVIVED: no property failed across "
              << report.trials_per_property << " trials each — the harness is blind "
              << "to this bug\n";
    return 1;
  }
  std::cout << "mutant caught by " << caught_by << " propert"
            << (caught_by == 1 ? "y" : "ies") << "\n";
  return 0;
#else
  if (caught_by != 0) {
    std::cout << "CONTROL FAILED: " << report.total_failures()
              << " failures on the pristine library\n";
    return 1;
  }
  std::cout << "control clean: " << report.properties.size() << " properties x "
            << report.trials_per_property << " trials\n";
  return 0;
#endif
}
