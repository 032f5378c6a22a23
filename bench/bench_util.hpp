// bench_util.hpp — shared helpers for the bench binaries: argv and
// formatting for the table/figure regeneration binaries (each prints a
// self-describing plain-text report so `for b in build/bench/*; do $b; done`
// produces a readable log), and an optimization barrier for the timing
// loops of the two gate binaries.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>

namespace awd::bench {

/// Parse the experiment-engine thread knob from argv: `--threads=N` or
/// `--threads N`.  Returns 0 (auto: AWD_THREADS env var, else hardware
/// concurrency) when absent — see core::resolve_threads.
inline std::size_t threads_arg(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--threads=", 10) == 0) {
      return static_cast<std::size_t>(std::strtoul(arg + 10, nullptr, 10));
    }
    if (std::strcmp(arg, "--threads") == 0 && i + 1 < argc) {
      return static_cast<std::size_t>(std::strtoul(argv[i + 1], nullptr, 10));
    }
  }
  return 0;
}

inline void heading(const std::string& title) {
  std::printf("\n==============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("==============================================================\n");
}

inline void subheading(const std::string& title) {
  std::printf("\n--- %s ---\n", title.c_str());
}

inline std::string opt_step(const std::optional<std::size_t>& s) {
  return s ? std::to_string(*s) : std::string("never");
}

/// Keep `value` (and the work that produced it) alive in a timing loop: the
/// compiler must assume the empty asm reads it and touches memory.
template <typename T>
inline void do_not_optimize(const T& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

}  // namespace awd::bench
