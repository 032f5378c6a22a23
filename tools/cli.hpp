// cli.hpp — the layer every `awd` subcommand shares: argument walking with
// validated numbers, name lookups, the "[code] message" form of a Status,
// usage text and the exit convention.
//
// Exit convention: 0 ok; 1 invalid or corrupt input data, or a failed
// verification or convergence; 2 usage, unknown name, malformed number or
// I/O error.
#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "awd.hpp"

namespace awd::cli {

inline constexpr int kOk = 0;
inline constexpr int kFailed = 1;
inline constexpr int kUsage = 2;

/// Ends a subcommand early: main prints "awd <subcommand>: <message>" to
/// stderr (the subcommand's usage when the message is empty) and exits
/// with `code`.
struct Exit {
  int code = kUsage;
  std::string message;
};

/// A Status as the operator sees it: "[code] message".
[[nodiscard]] std::string describe(const Status& s);

/// Exit 1 with "<where>: [code] message".
[[noreturn]] void fail(const std::string& where, const Status& s);

/// Print "awd <subcommand>: <message>" to stderr and carry on.
void error(const std::string& message);

/// Print usage lines (each given without the leading "awd ").
void print_usage(std::FILE* out, std::string_view lines);

/// `text` as a whole decimal (or 0x-prefixed hex) unsigned number; any
/// other text is exit 2 naming `what`.
[[nodiscard]] std::uint64_t parse_u64(std::string_view what, std::string_view text);

/// Name lookups; an unknown name is exit 2 listing the valid ones.
[[nodiscard]] SimulatorCase lookup_case(const std::string& key);
[[nodiscard]] AttackKind lookup_attack(std::string_view name);

/// Read a whole file; an unreadable one is exit 2.
[[nodiscard]] std::vector<std::uint8_t> read_input(const std::string& path);

/// One subcommand's arguments: positionals in order, plus the flags its
/// command declares, as `--flag value` or `--flag=value` (the last one
/// given wins).  An undeclared flag or a value flag without its value is
/// exit 2.
class Args {
 public:
  Args(int argc, char** argv, const std::vector<std::string_view>& value_flags,
       const std::vector<std::string_view>& switches, std::string_view usage);

  [[nodiscard]] std::size_t count() const noexcept { return pos_.size(); }
  /// Positional `i`; exit 2 with the usage when there are fewer.
  [[nodiscard]] const std::string& at(std::size_t i) const;
  [[nodiscard]] bool has(std::string_view flag) const { return flags_.count(flag) != 0; }
  [[nodiscard]] std::uint64_t u64(std::string_view flag, std::uint64_t fallback) const;
  [[nodiscard]] double real(std::string_view flag, double fallback) const;
  [[nodiscard]] std::string_view usage_lines() const noexcept { return usage_; }

 private:
  std::vector<std::string> pos_;
  std::map<std::string, std::string, std::less<>> flags_;
  std::string_view usage_;
};

/// Exit 2 with the subcommand's usage.
[[noreturn]] inline void usage() { throw Exit{}; }

// The subcommands, one translation unit each.
int run_ckpt(const Args& args);
int run_forensics(const Args& args);
int run_reach(const Args& args);
int run_tune(const Args& args);
int run_diagnose(const Args& args);
int run_obs(const Args& args);

}  // namespace awd::cli
