// prop_fuzz — seeded property-based fuzzing driver for the detection
// pipeline (see DESIGN.md §11 and src/testkit/).
//
// Modes:
//   awd_prop_fuzz --trials=200 [--seed=S] [--property=a,b] [--report=f.json]
//       run N seeded trials per property; exit 1 when any trial fails.
//   awd_prop_fuzz --property=NAME --replay=SEED [limit flags]
//       re-evaluate one property at one exact trial seed — the
//       single-command replay line printed for every failure.
//   awd_prop_fuzz --corpus=DIR
//       replay every committed corpus entry (tests/prop/corpus/*.json).
//   --describe (with --replay or --corpus)
//       also print what each seed generates: every scenario (family label
//       first) and the property's own draws, such as the Thm-1 shrink
//       geometry — what a corpus entry's family and note must match.
//   awd_prop_fuzz --list
//       print the property catalogue with paper references.
//
// Reproducibility: a fixed (--seed, --trials, property set, limit flags)
// produces a byte-identical JSON report — unless --time-budget truncates
// the run, which the report flags.
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "testkit/corpus.hpp"
#include "testkit/property.hpp"
#include "testkit/runner.hpp"

namespace {

using awd::testkit::CorpusEntry;
using awd::testkit::GenLimits;
using awd::testkit::Property;
using awd::testkit::PropertyResult;
using awd::testkit::RunnerOptions;
using awd::testkit::RunReport;
using awd::testkit::Scenario;
using awd::testkit::ScenarioLog;

void print_usage(std::ostream& out) {
  out << "usage: awd_prop_fuzz [options]\n"
         "  --trials=N          trials per property (default 200)\n"
         "  --seed=S            base seed (default 0x5eed2022)\n"
         "  --property=a,b      comma-separated subset of the catalogue\n"
         "  --replay=SEED       evaluate --property once at this exact trial seed\n"
         "  --corpus=DIR        replay every *.json corpus entry under DIR\n"
         "  --describe          with --replay/--corpus: print each seed's generated\n"
         "                      scenarios and the property's own draws\n"
         "  --report=FILE       write the deterministic JSON report to FILE\n"
         "  --time-budget=SEC   stop early after SEC seconds (flags the report)\n"
         "  --max-steps=N       generation cap: simulation steps (default 220)\n"
         "  --max-window=N      generation cap: detector window w_m (default 48)\n"
         "  --max-dim=N         generation cap: plant state dimension (default 12)\n"
         "  --no-attack         generation cap: disable attack injection\n"
         "  --no-perturb        generation cap: disable dynamics perturbation\n"
         "  --no-shrink         do not shrink failures to minimal limits\n"
         "  --list              print the property catalogue and exit\n"
         "  --verbose           per-trial progress on stderr\n";
}

bool parse_u64(std::string_view text, std::uint64_t& out) {
  if (text.empty()) return false;
  try {
    std::size_t consumed = 0;
    out = std::stoull(std::string(text), &consumed, 0);
    return consumed == text.size();
  } catch (const std::exception&) {
    return false;
  }
}

bool parse_double(std::string_view text, double& out) {
  if (text.empty()) return false;
  try {
    std::size_t consumed = 0;
    out = std::stod(std::string(text), &consumed);
    return consumed == text.size();
  } catch (const std::exception&) {
    return false;
  }
}

std::vector<std::string> split_csv(std::string_view text) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t comma = text.find(',', start);
    const std::string_view piece =
        text.substr(start, comma == std::string_view::npos ? comma : comma - start);
    if (!piece.empty()) parts.emplace_back(piece);
    if (comma == std::string_view::npos) break;
    start = comma + 1;
  }
  return parts;
}

void print_catalogue(std::ostream& out) {
  out << "property catalogue (" << awd::testkit::property_catalogue().size()
      << " entries):\n";
  for (const Property& p : awd::testkit::property_catalogue()) {
    out << "  " << p.name << "\n      [" << p.paper_ref << "] " << p.summary << "\n";
  }
}

/// The --describe lines: what one property evaluation generated.
void print_log(const ScenarioLog& log) {
  for (const Scenario& sc : log.scenarios) std::cout << "  scenario: " << sc.describe() << "\n";
  for (const std::string& note : log.notes) std::cout << "  draws: " << note << "\n";
}

int run_replay(const std::string& property_name, std::uint64_t replay_seed,
               const GenLimits& limits, bool describe) {
  const Property* property = awd::testkit::find_property(property_name);
  if (property == nullptr) {
    std::cerr << "error: unknown property '" << property_name
              << "' (see --list for the catalogue)\n";
    return 2;
  }
  const ScenarioLog log;
  const PropertyResult r = awd::testkit::run_single(*property, replay_seed, limits);
  std::cout << (r.passed ? "ok   " : "FAIL ") << property->name << " seed " << replay_seed
            << "\n";
  if (describe) print_log(log);
  if (r.passed) return 0;
  std::cout << "  " << r.message << "\n";
  return 1;
}

int run_corpus(const std::string& dir, const GenLimits& limits, bool describe) {
  std::vector<CorpusEntry> corpus;
  try {
    corpus = awd::testkit::load_corpus(dir);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
  std::size_t failures = 0;
  for (const CorpusEntry& entry : corpus) {
    const Property* property = awd::testkit::find_property(entry.property);
    if (property == nullptr) {
      std::cerr << "error: " << entry.path << " names unknown property '"
                << entry.property << "'\n";
      return 2;
    }
    const ScenarioLog log;
    const PropertyResult r = awd::testkit::run_single(*property, entry.seed, limits);
    std::cout << (r.passed ? "ok   " : "FAIL ") << entry.property << " seed "
              << entry.seed;
    if (!entry.family.empty()) std::cout << " [" << entry.family << "]";
    if (!entry.note.empty()) std::cout << " — " << entry.note;
    std::cout << "\n";
    if (describe) print_log(log);
    if (!r.passed) {
      ++failures;
      std::cout << "  " << r.message << "\n";
    }
  }
  std::cout << (corpus.size() - failures) << "/" << corpus.size()
            << " corpus entries passed\n";
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  RunnerOptions options;
  std::string report_path;
  std::string corpus_dir;
  std::string replay_property;
  std::uint64_t replay_seed = 0;
  bool has_replay = false;
  bool verbose = false;
  bool describe = false;

  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto value = [&](std::string_view prefix) -> std::string_view {
      return arg.substr(prefix.size());
    };
    if (arg == "--help" || arg == "-h") {
      print_usage(std::cout);
      return 0;
    } else if (arg == "--list") {
      print_catalogue(std::cout);
      return 0;
    } else if (arg.rfind("--trials=", 0) == 0) {
      std::uint64_t n = 0;
      if (!parse_u64(value("--trials="), n) || n == 0) {
        std::cerr << "error: bad --trials value\n";
        return 2;
      }
      options.trials = static_cast<std::size_t>(n);
    } else if (arg.rfind("--seed=", 0) == 0) {
      if (!parse_u64(value("--seed="), options.seed)) {
        std::cerr << "error: bad --seed value\n";
        return 2;
      }
    } else if (arg.rfind("--property=", 0) == 0) {
      for (std::string& name : split_csv(value("--property="))) {
        options.properties.push_back(std::move(name));
      }
    } else if (arg.rfind("--replay=", 0) == 0) {
      if (!parse_u64(value("--replay="), replay_seed)) {
        std::cerr << "error: bad --replay value\n";
        return 2;
      }
      has_replay = true;
    } else if (arg.rfind("--corpus=", 0) == 0) {
      corpus_dir = std::string(value("--corpus="));
    } else if (arg.rfind("--report=", 0) == 0) {
      report_path = std::string(value("--report="));
    } else if (arg.rfind("--time-budget=", 0) == 0) {
      if (!parse_double(value("--time-budget="), options.time_budget_seconds) ||
          options.time_budget_seconds < 0.0) {
        std::cerr << "error: bad --time-budget value\n";
        return 2;
      }
    } else if (arg.rfind("--max-steps=", 0) == 0) {
      std::uint64_t n = 0;
      if (!parse_u64(value("--max-steps="), n) || n < 8) {
        std::cerr << "error: bad --max-steps value (need >= 8)\n";
        return 2;
      }
      options.limits.max_steps = static_cast<std::size_t>(n);
    } else if (arg.rfind("--max-window=", 0) == 0) {
      std::uint64_t n = 0;
      if (!parse_u64(value("--max-window="), n) || n < 4) {
        std::cerr << "error: bad --max-window value (need >= 4)\n";
        return 2;
      }
      options.limits.window_cap = static_cast<std::size_t>(n);
    } else if (arg.rfind("--max-dim=", 0) == 0) {
      std::uint64_t n = 0;
      if (!parse_u64(value("--max-dim="), n) || n == 0) {
        std::cerr << "error: bad --max-dim value\n";
        return 2;
      }
      options.limits.max_state_dim = static_cast<std::size_t>(n);
    } else if (arg == "--no-attack") {
      options.limits.allow_attack = false;
    } else if (arg == "--no-perturb") {
      options.limits.allow_perturbation = false;
    } else if (arg == "--no-shrink") {
      options.shrink = false;
    } else if (arg == "--verbose") {
      verbose = true;
    } else if (arg == "--describe") {
      describe = true;
    } else {
      std::cerr << "error: unknown option '" << arg << "'\n";
      print_usage(std::cerr);
      return 2;
    }
  }

  if (has_replay) {
    if (options.properties.size() != 1) {
      std::cerr << "error: --replay needs exactly one --property=NAME\n";
      return 2;
    }
    return run_replay(options.properties.front(), replay_seed, options.limits, describe);
  }
  if (!corpus_dir.empty()) {
    return run_corpus(corpus_dir, options.limits, describe);
  }
  if (describe) {
    std::cerr << "error: --describe needs --replay=SEED or --corpus=DIR\n";
    return 2;
  }

  options.log = verbose ? &std::cerr : nullptr;
  RunReport report;
  try {
    report = awd::testkit::run_properties(options);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }

  if (!report_path.empty()) {
    std::ofstream out(report_path);
    if (!out) {
      std::cerr << "error: cannot write report to " << report_path << "\n";
      return 2;
    }
    awd::testkit::write_json_report(report, out);
  }

  std::size_t total_trials = 0;
  for (const auto& p : report.properties) {
    total_trials += p.trials;
    if (p.failures == 0) continue;
    for (const auto& f : p.failure_details) {
      std::cout << "FAIL " << p.name << " trial " << f.trial_index << " seed "
                << f.trial_seed << "\n  " << f.shrunk_message
                << "\n  replay: " << f.replay << "\n";
    }
    if (p.failures > p.failure_details.size()) {
      std::cout << "  ... and " << (p.failures - p.failure_details.size())
                << " more failures of " << p.name << "\n";
    }
  }
  std::cout << report.properties.size() << " properties, " << total_trials
            << " trials, " << report.total_failures() << " failures"
            << (report.truncated ? " (TRUNCATED by --time-budget)" : "") << "\n";
  return report.total_failures() == 0 ? 0 : 1;
}
