// awd diagnose / awd obs — run and observability diagnostics.
//
// `awd diagnose <case_key> <attack> [seed]` runs one case and prints
// per-phase residual statistics, deadline distribution, alarm locations
// for both strategies, and run metrics — everything needed to calibrate the
// free parameters (sensor noise, attack magnitude) against the paper's
// reported shapes.  With no arguments it prints its header and usage.
//
// `awd obs` ingests a directory written by --obs-out and pretty-prints it:
// counter/gauge tables, derived ratios, per-stage profile, the window-size
// histogram, and the top-N slowest trace spans.  CI runs it over the
// archived trace directory so the numbers appear in the job log next to
// the artifact.
#include <algorithm>
#include <cstdint>

#include "cli.hpp"
#include "obs/report.hpp"

namespace awd::cli {
namespace {

void print_alarm_ranges(const Trace& trace, bool adaptive, const char* label) {
  std::printf("  %s alarms: ", label);
  bool in_range = false;
  std::size_t start = 0;
  std::size_t total = 0;
  for (std::size_t t = 0; t <= trace.size(); ++t) {
    const bool alarm =
        t < trace.size() && (adaptive ? trace[t].adaptive_alarm : trace[t].fixed_alarm);
    if (alarm && !in_range) {
      in_range = true;
      start = t;
    } else if (!alarm && in_range) {
      in_range = false;
      std::printf("[%zu..%zu] ", start, t - 1);
    }
    if (alarm) ++total;
  }
  std::printf(" (total %zu steps)\n", total);
}

}  // namespace

int run_diagnose(const Args& args) {
  if (args.count() == 0) {
    std::printf("awd diagnose — per-run detection diagnostics\n\n");
    print_usage(stdout, args.usage_lines());
    return kOk;
  }
  if (args.count() > 3) usage();
  const SimulatorCase scase = lookup_case(args.at(0));
  const std::string& attack_name = args.at(1);
  const AttackKind attack = lookup_attack(attack_name);
  const std::uint64_t seed = args.count() > 2 ? parse_u64("seed", args.at(2)) : 1;

  DetectionSystem system(scase, attack, seed);
  const Trace trace = system.run();
  const std::size_t n = scase.model.state_dim();
  const std::size_t a0 = scase.attack_start;
  const std::size_t a1 = a0 + scase.attack_duration;

  // Residual statistics per phase.
  struct Phase {
    const char* name;
    std::size_t lo, hi;
  };
  const Phase phases[] = {{"startup   ", 0, 100},
                          {"pre-attack", 100, a0},
                          {"attack    ", a0, a1},
                          {"recovery  ", a1, trace.size()}};

  std::printf("%s / %s / seed %llu  (tau[0]=%g)\n", scase.key.c_str(), attack_name.c_str(),
              static_cast<unsigned long long>(seed), scase.tau[0]);
  std::printf("\nresidual mean per dim (vs tau):\n");
  for (const Phase& ph : phases) {
    if (ph.hi <= ph.lo) continue;
    std::printf("  %s:", ph.name);
    for (std::size_t d = 0; d < n && d < 6; ++d) {
      double s = 0.0;
      for (std::size_t t = ph.lo; t < ph.hi && t < trace.size(); ++t) {
        s += trace[t].residual[d];
      }
      s /= static_cast<double>(ph.hi - ph.lo);
      std::printf(" %7.4f/%g", s, scase.tau[d]);
    }
    std::printf("\n");
  }

  std::printf("\ndeadline / window stats:\n");
  for (const Phase& ph : phases) {
    if (ph.hi <= ph.lo) continue;
    double dl = 0.0, wn = 0.0;
    std::size_t dl_min = SIZE_MAX;
    for (std::size_t t = ph.lo; t < ph.hi && t < trace.size(); ++t) {
      dl += static_cast<double>(trace[t].deadline);
      wn += static_cast<double>(trace[t].window);
      dl_min = std::min(dl_min, trace[t].deadline);
    }
    const double cnt = static_cast<double>(ph.hi - ph.lo);
    std::printf("  %s: mean deadline %5.1f (min %zu), mean window %5.1f\n", ph.name,
                dl / cnt, dl_min, wn / cnt);
  }

  print_alarm_ranges(trace, true, "adaptive");
  print_alarm_ranges(trace, false, "fixed   ");

  MetricsOptions opts;
  opts.warmup = 100;
  const auto ma = compute_metrics(trace, a0, scase.attack_duration, Strategy::kAdaptive, opts);
  const auto mf = compute_metrics(trace, a0, scase.attack_duration, Strategy::kFixed, opts);
  std::printf("\nadaptive: fp_rate %.3f fp_exp %d dm %d delay %s (deadline %zu)\n",
              ma.fp_rate, ma.fp_experiment, ma.deadline_miss,
              ma.detection_delay ? std::to_string(*ma.detection_delay).c_str() : "-",
              ma.deadline_at_onset);
  std::printf("fixed:    fp_rate %.3f fp_exp %d dm %d delay %s\n", mf.fp_rate,
              mf.fp_experiment, mf.deadline_miss,
              mf.detection_delay ? std::to_string(*mf.detection_delay).c_str() : "-");
  std::printf("first unsafe: %s\n",
              ma.first_unsafe ? std::to_string(*ma.first_unsafe).c_str() : "never");
  return kOk;
}

int run_obs(const Args& args) {
  const std::string& dir = args.at(0);
  if (args.count() != 1) usage();
  const std::size_t top_n = args.u64("--top", 10);
  if (!obs::print_obs_summary(dir, top_n)) {
    throw Exit{kFailed, dir + " has neither metrics.json nor trace.json"};
  }
  return kOk;
}

}  // namespace awd::cli
