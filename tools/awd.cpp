// awd — the operator binary: one subcommand per question an operator asks
// of a snapshot (ckpt), a dump (forensics), a deadline table (reach), a
// tuning (tune), a host or a run (diagnose) and an --obs-out directory
// (obs).  This file holds main, the subcommand table and the shared layer
// declared in cli.hpp.
#include <algorithm>
#include <charconv>
#include <stdexcept>

#include "cli.hpp"
#include "linalg/kernels.hpp"

namespace awd::cli {
namespace {

std::string g_command = "awd";  // "awd <subcommand>" once one is chosen

/// All of `text` as a T (no whitespace, trailing junk or overflow), else
/// exit 2 naming `what`.
template <typename T, typename... Base>
T parse_whole(std::string_view what, std::string_view text, Base... base) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value, base...);
  if (text.empty() || ec != std::errc{} || ptr != end) {
    throw Exit{kUsage, std::string(what) + ": malformed number '" + std::string(text) + "'"};
  }
  return value;
}

}  // namespace

std::string describe(const Status& s) {
  std::string out = "[";
  out.append(core::to_string(s.code())).append("] ").append(s.message());
  return out;
}

void fail(const std::string& where, const Status& s) {
  throw Exit{kFailed, where + ": " + describe(s)};
}

void error(const std::string& message) {
  std::fprintf(stderr, "%s: %s\n", g_command.c_str(), message.c_str());
}

void print_usage(std::FILE* out, std::string_view lines) {
  const char* lead = "usage: ";
  while (!lines.empty()) {
    const std::string_view line = lines.substr(0, lines.find('\n'));
    std::fprintf(out, "%sawd %.*s\n", lead, static_cast<int>(line.size()), line.data());
    lines.remove_prefix(std::min(lines.size(), line.size() + 1));
    lead = "       ";
  }
}

void print_simd_line() {
  namespace kn = linalg::kernels;
  std::printf("simd: compiled=%s runtime=%s active=%s (lane width %zu)\n",
              kn::level_name(kn::compiled_level()), kn::level_name(kn::runtime_level()),
              kn::level_name(kn::active_level()), kn::lane_width(kn::active_level()));
}

std::uint64_t parse_u64(std::string_view what, std::string_view text) {
  if (text.size() > 2 && text[0] == '0' && (text[1] == 'x' || text[1] == 'X')) {
    return parse_whole<std::uint64_t>(what, text.substr(2), 16);
  }
  return parse_whole<std::uint64_t>(what, text, 10);
}

SimulatorCase lookup_case(const std::string& key) {
  try {
    return simulator_case(key);
  } catch (const std::invalid_argument& e) {
    throw Exit{kUsage, e.what()};
  }
}

AttackKind lookup_attack(std::string_view name) {
  std::string valid;
  for (int k = 0; k <= static_cast<int>(AttackKind::kIntermittentBias); ++k) {
    const auto kind = static_cast<AttackKind>(k);
    if (core::to_string(kind) == name) return kind;
    valid += (k == 0 ? "" : ", ") + std::string(core::to_string(kind));
  }
  throw Exit{kUsage, "unknown attack '" + std::string(name) + "' (valid attacks: " + valid + ")"};
}

std::vector<std::uint8_t> read_input(const std::string& path) {
  Result<std::vector<std::uint8_t>> bytes = core::ckpt::read_file(path);
  if (!bytes.is_ok()) throw Exit{kUsage, path + ": " + describe(bytes.status())};
  return std::move(bytes).value();
}

Args::Args(int argc, char** argv, const std::vector<std::string_view>& value_flags,
           const std::vector<std::string_view>& switches, std::string_view usage)
    : usage_(usage) {
  const auto declared = [](const std::vector<std::string_view>& set, std::string_view f) {
    return std::find(set.begin(), set.end(), f) != set.end();
  };
  for (int i = 0; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      pos_.emplace_back(arg);
      continue;
    }
    const std::size_t eq = arg.find('=');
    const std::string_view flag = arg.substr(0, eq);
    if (declared(switches, flag) && eq == std::string_view::npos) {
      flags_[std::string(flag)];
    } else if (declared(value_flags, flag)) {
      if (eq == std::string_view::npos && i + 1 == argc) {
        throw Exit{kUsage, std::string(flag) + " needs a value"};
      }
      flags_[std::string(flag)] = eq == std::string_view::npos ? argv[++i] : arg.substr(eq + 1);
    } else {
      throw Exit{kUsage, "unknown option '" + std::string(arg) + "'"};
    }
  }
}

const std::string& Args::at(std::size_t i) const {
  if (i >= pos_.size()) usage();
  return pos_[i];
}

std::uint64_t Args::u64(std::string_view flag, std::uint64_t fallback) const {
  const auto it = flags_.find(flag);
  return it == flags_.end() ? fallback : parse_u64(flag, it->second);
}

double Args::real(std::string_view flag, double fallback) const {
  const auto it = flags_.find(flag);
  return it == flags_.end() ? fallback : parse_whole<double>(flag, it->second);
}

}  // namespace awd::cli

namespace {

using namespace awd::cli;

struct Command {
  std::string_view name;
  std::string_view usage;  // one line per form, without the leading "awd "
  std::vector<std::string_view> value_flags;
  std::vector<std::string_view> switches;
  int (*run)(const Args&);
};

const Command kCommands[] = {
    {"ckpt", "ckpt inspect <file> [--json]\nckpt validate <file>", {}, {"--json"}, run_ckpt},
    {"forensics",
     "forensics info <file.awdfr> [--json]\n"
     "forensics frames <file.awdfr> [--tail N]\n"
     "forensics replay <file.awdfr> [--json]",
     {"--tail"}, {"--json"}, run_forensics},
    {"reach",
     "reach build <case_key> <file> [--cells N] [--init-radius R] [--max-window W]\n"
     "reach info  <file>\n"
     "reach check <case_key> <file> [--cells N] [--init-radius R] [--max-window W]",
     {"--cells", "--init-radius", "--max-window"}, {}, run_reach},
    {"tune",
     "tune <case_key|all> [--target-far F] [--trials N] [--tolerance R] "
     "[--threads N] [--seed S] [--roc]",
     {"--target-far", "--trials", "--tolerance", "--threads", "--seed"}, {"--roc"}, run_tune},
    {"diagnose", "diagnose [<case_key> <attack> [seed]]", {}, {}, run_diagnose},
    {"obs", "obs <obs-dir> [--top N]", {"--top"}, {}, run_obs},
};

}  // namespace

int main(int argc, char** argv) {
  const std::string_view name = argc > 1 ? argv[1] : "";
  const Command* cmd = std::find_if(std::begin(kCommands), std::end(kCommands),
                                    [&](const Command& c) { return c.name == name; });
  if (cmd == std::end(kCommands)) {
    if (argc > 1) error("unknown subcommand '" + std::string(name) + "'");
    std::string all;
    for (const Command& c : kCommands) all += std::string(c.usage) + "\n";
    print_usage(stderr, all);
    return kUsage;
  }
  g_command = "awd " + std::string(name);
  try {
    return cmd->run(Args(argc - 2, argv + 2, cmd->value_flags, cmd->switches, cmd->usage));
  } catch (const Exit& e) {
    if (e.message.empty()) {
      print_usage(stderr, cmd->usage);
    } else {
      error(e.message);
    }
    return e.code;
  }
}
