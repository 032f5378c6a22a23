// awd_perfbench — one run of one benchmark workload.
//
//   awd_perfbench --workload <serve_steady|serve_faulted_hd|campaign_table2>
//                 --seed <n> --seconds <s> --trace <0|1>
//                 [--out <result.json>] [--spans <spans.jsonl>]
//                 [--commit <sha>] [--src-digest <hex>]
//
// Prints one "name = value unit" line per metric, then, as the last line,
// {"correct", "attempted", "failed", "metrics"} with every metric the run
// computed (perfbench/run.py selects the ones BENCHMARK.json names).
// --trace 0 measures the end-to-end metrics with benchmark tracing off;
// --trace 1 is the separate traced run giving the per-layer metrics.
// Exit code 0 only when every output check passed.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <thread>

#include "awd.hpp"
#include "bench.hpp"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

bool parse_args(int argc, char** argv, RunArgs& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (key == "--workload") {
        a.workload = value;
      } else if (key == "--seed") {
        a.seed = std::stoull(value);
      } else if (key == "--seconds") {
        a.seconds = std::stod(value);
      } else if (key == "--trace") {
        a.trace = value == "1";
      } else if (key == "--out") {
        a.out_path = value;
      } else if (key == "--spans") {
        a.spans_path = value;
      } else if (key == "--commit") {
        a.commit = value;
      } else if (key == "--src-digest") {
        a.src_digest = value;
      } else {
        std::fprintf(stderr, "unknown argument %s\n", key.c_str());
        return false;
      }
    } catch (const std::exception&) {
      std::fprintf(stderr, "bad value for %s: %s\n", key.c_str(), value.c_str());
      return false;
    }
  }
  if ((argc - 1) % 2 != 0 || a.workload.empty() || !(a.seconds > 0.0)) {
    std::fprintf(stderr, "usage: awd_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n");
    return false;
  }
  return true;
}

std::string cpu_model() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

Json host_record(const RunArgs& a) {
  namespace k = awd::linalg::kernels;
  Json j;
  j.count("nproc", std::thread::hardware_concurrency())
      .count("worker_threads", bench_threads())
      .str("cpu", cpu_model())
      .str("simd_active", k::level_name(k::active_level()))
      .str("simd_compiled", k::level_name(k::compiled_level()))
      .str("compiler", PERFBENCH_COMPILER)
      .str("build_type", PERFBENCH_BUILD_TYPE)
      .flag("obs_enabled", awd::obs::enabled())
      .count("seed", a.seed)
      .str("git_commit", a.commit)
      .str("src_digest", a.src_digest);
  return j;
}

std::string metrics_json(const RunOutput& out) {
  Json m;
  for (const Metric& metric : out.metrics) {
    Json v;
    v.num("value", metric.value).str("unit", metric.unit);
    m.obj(metric.name, v);
  }
  return m.dump();
}

}  // namespace

int main(int argc, char** argv) {
  RunArgs args;
  if (!parse_args(argc, argv, args)) return 2;
  awd::obs::set_enabled(true);  // shipping default: obs metrics on

  SpanLog spans;
  RunOutput out;
  try {
    out = is_serve_workload(args.workload) ? run_serve(args, spans) : run_campaign(args, spans);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "run failed: %s\n", e.what());
    return 1;
  }

  std::printf("workload %s  seed %llu  trace %d  threads %zu\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0, bench_threads());
  for (const Metric& m : out.metrics) {
    std::printf("  %-32s = %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const std::string& p : out.problems) std::printf("  FAILED CHECK: %s\n", p.c_str());

  if (args.trace && !spans.spans().empty()) {
    for (const auto& [name, st] : spans.by_name()) {
      Json s;
      s.count("count", st.count)
          .num("mean_ns", st.mean_ns())
          .num("self_mean_ns", st.count ? st.self_ns / static_cast<double>(st.count) : 0.0);
      out.spans.obj(name, s);
    }
    if (!args.spans_path.empty() && !spans.write_jsonl(args.spans_path)) {
      std::fprintf(stderr, "cannot write %s\n", args.spans_path.c_str());
      return 1;
    }
  }

  std::string problems = "[";
  for (std::size_t i = 0; i < out.problems.size(); ++i) {
    problems += (i ? ", " : "") + json_string(out.problems[i]);
  }
  problems += "]";
  if (!args.out_path.empty()) {
    Json record;
    record.str("workload", args.workload)
        .count("seed", args.seed)
        .flag("trace", args.trace)
        .num("seconds", args.seconds)
        .obj("host", host_record(args))
        .flag("correct", out.correct)
        .count("attempted", out.attempted)
        .count("failed", out.failed)
        .raw("problems", problems)
        .raw("metrics", metrics_json(out))
        .obj("details", out.details);
    if (!out.spans.empty()) record.obj("spans", out.spans);
    std::ofstream f(args.out_path);
    f << record.dump() << "\n";
    if (!f) {
      std::fprintf(stderr, "cannot write %s\n", args.out_path.c_str());
      return 1;
    }
  }

  Json last;
  last.flag("correct", out.correct && out.failed == 0)
      .count("attempted", std::max<std::uint64_t>(1, out.attempted))
      .count("failed", out.failed)
      .raw("metrics", metrics_json(out));
  std::printf("%s\n", last.dump().c_str());
  std::fflush(stdout);
  return out.correct && out.failed == 0 ? 0 : 1;
}
