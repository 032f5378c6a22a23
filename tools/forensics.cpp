// awd forensics — flight-recorder dump decoder and alarm replay verifier
// (DESIGN.md §15).
//
// `info` decodes a dump down to its meta/spec summary; `frames` prints the
// captured window one step per line (residual norm, detector statistic,
// window, deadline, flags); `replay` rebuilds the stream from the embedded
// spec, re-runs it deterministically, and verifies every captured frame
// bit-for-bit plus the trigger condition — the operator-facing form of the
// guarantee that a dump faithfully describes what the detector saw.
//
// Exit codes: 0 decoded (and, for replay, verified); 1 corrupt dump or
// failed verification; 2 usage or I/O error.
#include "cli.hpp"

namespace awd::cli {
namespace {

using ull = unsigned long long;

/// Render a frame's flag bits as a compact mnemonic string ("A" adaptive
/// alarm, "F" fixed alarm, "a" attack active, "u" unsafe, "m" sample
/// missing, "e" estimate fallback, "q" quarantined, "d" deadline fallback).
std::string flag_string(const obs::FlightFrame& f) {
  std::string s;
  if (f.flag(obs::kFrameAdaptiveAlarm)) s += 'A';
  if (f.flag(obs::kFrameFixedAlarm)) s += 'F';
  if (f.flag(obs::kFrameAttackActive)) s += 'a';
  if (f.flag(obs::kFrameUnsafe)) s += 'u';
  if (f.flag(obs::kFrameSampleMissing)) s += 'm';
  if (f.flag(obs::kFrameEstimateFallback)) s += 'e';
  if (f.flag(obs::kFrameResidualQuarantined)) s += 'q';
  if (f.flag(obs::kFrameDeadlineFallback)) s += 'd';
  return s.empty() ? "-" : s;
}

void print_info_text(const std::string& path, const ForensicsDump& d) {
  std::printf("%s: awd forensic dump, reason %s\n", path.c_str(),
              serve::dump_reason_name(d.reason));
  std::printf("  stream           #%llu (shard %llu)\n", static_cast<ull>(d.stream),
              static_cast<ull>(d.shard));
  std::printf("  trigger          step %llu of %llu done (%zu total)\n",
              static_cast<ull>(d.trigger_step), static_cast<ull>(d.steps_done), d.spec.steps);
  std::printf("  spec             %s, attack %s, seed %llu\n", d.spec.scase.key.c_str(),
              std::string(core::to_string(d.spec.attack)).c_str(),
              static_cast<ull>(d.spec.seed));
  std::printf("  frames           %zu (steps %llu..%llu)\n", d.frames.size(),
              d.frames.empty() ? 0ULL : static_cast<ull>(d.frames.front().t),
              d.frames.empty() ? 0ULL : static_cast<ull>(d.frames.back().t));
  std::printf("  timestamp        %llu ns (monotonic)\n", static_cast<ull>(d.ts_ns));
}

void print_info_json(const ForensicsDump& d) {
  std::printf("{\n");
  std::printf("  \"reason\": \"%s\",\n", serve::dump_reason_name(d.reason));
  std::printf("  \"stream\": %llu,\n", static_cast<ull>(d.stream));
  std::printf("  \"shard\": %llu,\n", static_cast<ull>(d.shard));
  std::printf("  \"trigger_step\": %llu,\n", static_cast<ull>(d.trigger_step));
  std::printf("  \"steps_done\": %llu,\n", static_cast<ull>(d.steps_done));
  std::printf("  \"ts_ns\": %llu,\n", static_cast<ull>(d.ts_ns));
  std::printf("  \"case\": \"%s\",\n", d.spec.scase.key.c_str());
  std::printf("  \"attack\": \"%s\",\n", std::string(core::to_string(d.spec.attack)).c_str());
  std::printf("  \"seed\": %llu,\n", static_cast<ull>(d.spec.seed));
  std::printf("  \"steps_total\": %zu,\n", d.spec.steps);
  std::printf("  \"frames\": %zu\n", d.frames.size());
  std::printf("}\n");
}

void print_frames(const ForensicsDump& d, std::size_t tail) {
  const std::size_t n = d.frames.size();
  const std::size_t first = tail != 0 && tail < n ? n - tail : 0;
  std::printf("%8s %14s %14s %7s %9s %6s %6s %s\n", "step", "resid_norm",
              "detect_stat", "window", "deadline", "fault", "health", "flags");
  for (std::size_t i = first; i < n; ++i) {
    const obs::FlightFrame& f = d.frames[i];
    std::printf("%8llu %14.6g %14.6g %7u %9u %6u %6u %s%s\n", static_cast<ull>(f.t),
                f.residual_norm, f.detect_stat, f.window, f.deadline, f.fault, f.health,
                flag_string(f).c_str(), f.t == d.trigger_step ? "  <-- trigger" : "");
  }
}

void print_replay(const std::string& path, const ForensicsDump& d, const ReplayReport& rep,
                  bool json) {
  const auto flag = [](bool b) { return b ? "true" : "false"; };
  if (json) {
    std::printf("{\n");
    std::printf("  \"verified\": %s,\n", flag(rep.verified()));
    std::printf("  \"steps_replayed\": %zu,\n", rep.steps_replayed);
    std::printf("  \"frames_compared\": %zu,\n", rep.frames_compared);
    std::printf("  \"frames_identical\": %s,\n", flag(rep.frames_identical));
    std::printf("  \"trigger_reproduced\": %s,\n", flag(rep.trigger_reproduced));
    std::printf("  \"trigger_stat\": %.17g,\n", rep.trigger_stat);
    std::printf("  \"mismatch\": \"%s\"\n", rep.mismatch.c_str());
    std::printf("}\n");
    return;
  }
  std::printf("%s %s: replayed %zu steps, %zu frames bit-%s, trigger (%s) %s, "
              "detector stat %.6g\n",
              rep.verified() ? "PASS" : "FAIL", path.c_str(), rep.steps_replayed,
              rep.frames_compared, rep.frames_identical ? "identical" : "DIFFERENT",
              serve::dump_reason_name(d.reason),
              rep.trigger_reproduced ? "reproduced" : "NOT reproduced", rep.trigger_stat);
  if (!rep.mismatch.empty()) std::printf("  %s\n", rep.mismatch.c_str());
}

}  // namespace

int run_forensics(const Args& args) {
  const std::string& command = args.at(0);
  const std::string& path = args.at(1);
  if (args.count() != 2 || (command != "info" && command != "frames" && command != "replay")) {
    usage();
  }
  const std::size_t tail = args.u64("--tail", 0);

  const Result<ForensicsDump> dump = decode_dump(read_input(path));
  if (!dump.is_ok()) fail(path, dump.status());
  const ForensicsDump& d = dump.value();
  if (command == "info") {
    if (args.has("--json")) {
      print_info_json(d);
    } else {
      print_info_text(path, d);
    }
    return kOk;
  }
  if (command == "frames") {
    print_frames(d, tail);
    return kOk;
  }
  const Result<ReplayReport> replayed = replay_dump(d);
  if (!replayed.is_ok()) fail("replay failed", replayed.status());
  print_replay(path, d, replayed.value(), args.has("--json"));
  return replayed.value().verified() ? kOk : kFailed;
}

}  // namespace awd::cli
