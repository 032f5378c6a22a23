// awd_ckpt — snapshot inspection/validation tool (DESIGN.md §13).
//
// Usage: awd_ckpt inspect <file> [--json]
//        awd_ckpt validate <file>
//
// `inspect` parses a StreamEngine snapshot down to its structural summary
// (format version, fingerprint, engine counters, per-stream progress) and
// prints it as text or JSON; it reconstructs no pipeline state, so pointing
// it at an untrusted or corrupt file is safe.  `validate` runs the same
// framing checks (magic, version, CRCs, section structure, fingerprint) and
// reports PASS/FAIL with the typed error — the operator-facing form of the
// guarantee that a damaged snapshot can never be half-restored.
//
// Exit codes: 0 valid, 1 invalid/corrupt snapshot, 2 usage or I/O error.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "awd.hpp"

namespace {

using namespace awd;

void print_stream_text(const SnapshotStreamInfo& s, const char* label) {
  std::printf("  %-8s #%-4llu %-18s %-7s seed %-6llu %zu/%zu steps\n", label,
              static_cast<unsigned long long>(s.id), s.case_key.c_str(),
              std::string(core::to_string(s.attack)).c_str(),
              static_cast<unsigned long long>(s.seed), s.steps_done, s.steps_total);
}

void print_stream_json(const SnapshotStreamInfo& s, bool last) {
  std::printf(
      "      {\"id\": %llu, \"case\": \"%s\", \"attack\": \"%s\", "
      "\"seed\": %llu, \"steps_done\": %zu, \"steps_total\": %zu}%s\n",
      static_cast<unsigned long long>(s.id), s.case_key.c_str(),
      std::string(core::to_string(s.attack)).c_str(), static_cast<unsigned long long>(s.seed),
      s.steps_done, s.steps_total, last ? "" : ",");
}

void print_text(const std::string& path, const SnapshotInfo& info) {
  std::printf("%s: awd snapshot v%u, %zu bytes, %zu sections\n", path.c_str(),
              info.version, info.bytes, info.sections);
  std::printf("  fingerprint      %016llx\n",
              static_cast<unsigned long long>(info.fingerprint));
  std::printf("  streams          %zu running, %zu pending, %zu finished (undrained)\n",
              info.running.size(), info.pending.size(), info.finished);
  std::printf("  counters         admitted %llu, finished %llu, rejected %llu, "
              "steps %llu, next id %llu\n",
              static_cast<unsigned long long>(info.streams_admitted),
              static_cast<unsigned long long>(info.streams_finished),
              static_cast<unsigned long long>(info.streams_rejected),
              static_cast<unsigned long long>(info.steps_total),
              static_cast<unsigned long long>(info.next_id));
  std::printf("  serving policy   max_streams %zu, queue_capacity %zu, "
              "lean_records %s, per_step_obs %s, shared_estimators %s\n",
              info.max_streams, info.queue_capacity,
              info.lean_records ? "on" : "off", info.per_step_obs ? "on" : "off",
              info.share_deadline_estimators ? "on" : "off");
  for (const SnapshotStreamInfo& s : info.running) print_stream_text(s, "running");
  for (const SnapshotStreamInfo& s : info.pending) print_stream_text(s, "pending");
}

void print_json(const SnapshotInfo& info) {
  std::printf("{\n");
  std::printf("  \"version\": %u,\n", info.version);
  std::printf("  \"bytes\": %zu,\n", info.bytes);
  std::printf("  \"sections\": %zu,\n", info.sections);
  std::printf("  \"fingerprint\": \"%016llx\",\n",
              static_cast<unsigned long long>(info.fingerprint));
  std::printf("  \"counters\": {\"admitted\": %llu, \"finished\": %llu, "
              "\"rejected\": %llu, \"steps_total\": %llu, \"next_id\": %llu},\n",
              static_cast<unsigned long long>(info.streams_admitted),
              static_cast<unsigned long long>(info.streams_finished),
              static_cast<unsigned long long>(info.streams_rejected),
              static_cast<unsigned long long>(info.steps_total),
              static_cast<unsigned long long>(info.next_id));
  std::printf("  \"policy\": {\"max_streams\": %zu, \"queue_capacity\": %zu, "
              "\"lean_records\": %s, \"per_step_obs\": %s, "
              "\"share_deadline_estimators\": %s},\n",
              info.max_streams, info.queue_capacity,
              info.lean_records ? "true" : "false",
              info.per_step_obs ? "true" : "false",
              info.share_deadline_estimators ? "true" : "false");
  std::printf("  \"finished_undrained\": %zu,\n", info.finished);
  std::printf("  \"running\": [");
  if (!info.running.empty()) {
    std::printf("\n");
    for (std::size_t i = 0; i < info.running.size(); ++i) {
      print_stream_json(info.running[i], i + 1 == info.running.size());
    }
    std::printf("  ");
  }
  std::printf("],\n");
  std::printf("  \"pending\": [");
  if (!info.pending.empty()) {
    std::printf("\n");
    for (std::size_t i = 0; i < info.pending.size(); ++i) {
      print_stream_json(info.pending[i], i + 1 == info.pending.size());
    }
    std::printf("  ");
  }
  std::printf("]\n");
  std::printf("}\n");
}

int usage() {
  std::fprintf(stderr,
               "usage: awd_ckpt inspect <file> [--json]\n"
               "       awd_ckpt validate <file>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string command = argv[1];
  const std::string path = argv[2];
  bool json = false;
  for (int i = 3; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else {
      return usage();
    }
  }
  if (command != "inspect" && command != "validate") return usage();

  Result<std::vector<std::uint8_t>> bytes = core::ckpt::read_file(path);
  if (!bytes.is_ok()) {
    std::fprintf(stderr, "awd_ckpt: %s: %.*s\n", path.c_str(),
                 static_cast<int>(bytes.status().message().size()),
                 bytes.status().message().data());
    return 2;
  }

  Result<SnapshotInfo> info = describe_snapshot(bytes.value());
  if (command == "validate") {
    if (info.is_ok()) {
      std::printf("PASS %s: v%u, %zu bytes, %zu sections, %zu running, "
                  "%zu pending, fingerprint %016llx\n",
                  path.c_str(), info.value().version, info.value().bytes,
                  info.value().sections, info.value().running.size(),
                  info.value().pending.size(),
                  static_cast<unsigned long long>(info.value().fingerprint));
      return 0;
    }
    std::printf("FAIL %s: [%.*s] %.*s\n", path.c_str(),
                static_cast<int>(core::to_string(info.status().code()).size()),
                core::to_string(info.status().code()).data(),
                static_cast<int>(info.status().message().size()),
                info.status().message().data());
    return 1;
  }

  if (!info.is_ok()) {
    std::fprintf(stderr, "awd_ckpt: %s: [%.*s] %.*s\n", path.c_str(),
                 static_cast<int>(core::to_string(info.status().code()).size()),
                 core::to_string(info.status().code()).data(),
                 static_cast<int>(info.status().message().size()),
                 info.status().message().data());
    return 1;
  }
  if (json) {
    print_json(info.value());
  } else {
    print_text(path, info.value());
  }
  return 0;
}
