// awd ckpt — snapshot inspection/validation (DESIGN.md §13).
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
#include "cli.hpp"

namespace awd::cli {
namespace {

using ull = unsigned long long;

void print_stream_text(const SnapshotStreamInfo& s, const char* label) {
  std::printf("  %-8s #%-4llu %-18s %-7s seed %-6llu %zu/%zu steps\n", label,
              static_cast<ull>(s.id), s.case_key.c_str(),
              std::string(core::to_string(s.attack)).c_str(), static_cast<ull>(s.seed),
              s.steps_done, s.steps_total);
}

void print_text(const std::string& path, const SnapshotInfo& info) {
  std::printf("%s: awd snapshot v%u, %zu bytes, %zu sections\n", path.c_str(),
              info.version, info.bytes, info.sections);
  std::printf("  fingerprint      %016llx\n", static_cast<ull>(info.fingerprint));
  std::printf("  streams          %zu running, %zu pending, %zu finished (undrained)\n",
              info.running.size(), info.pending.size(), info.finished);
  std::printf("  counters         admitted %llu, finished %llu, rejected %llu, "
              "steps %llu, next id %llu\n",
              static_cast<ull>(info.streams_admitted), static_cast<ull>(info.streams_finished),
              static_cast<ull>(info.streams_rejected), static_cast<ull>(info.steps_total),
              static_cast<ull>(info.next_id));
  std::printf("  serving policy   max_streams %zu, queue_capacity %zu, "
              "lean_records %s, per_step_obs %s, shared_estimators %s\n",
              info.max_streams, info.queue_capacity, info.lean_records ? "on" : "off",
              info.per_step_obs ? "on" : "off", info.share_deadline_estimators ? "on" : "off");
  for (const SnapshotStreamInfo& s : info.running) print_stream_text(s, "running");
  for (const SnapshotStreamInfo& s : info.pending) print_stream_text(s, "pending");
}

void print_streams_json(const char* key, const std::vector<SnapshotStreamInfo>& streams,
                        const char* tail) {
  std::printf("  \"%s\": [", key);
  for (std::size_t i = 0; i < streams.size(); ++i) {
    const SnapshotStreamInfo& s = streams[i];
    std::printf("%s      {\"id\": %llu, \"case\": \"%s\", \"attack\": \"%s\", "
                "\"seed\": %llu, \"steps_done\": %zu, \"steps_total\": %zu}%s",
                i == 0 ? "\n" : "", static_cast<ull>(s.id), s.case_key.c_str(),
                std::string(core::to_string(s.attack)).c_str(), static_cast<ull>(s.seed),
                s.steps_done, s.steps_total, i + 1 == streams.size() ? "\n  " : ",\n");
  }
  std::printf("]%s\n", tail);
}

void print_json(const SnapshotInfo& info) {
  const auto flag = [](bool b) { return b ? "true" : "false"; };
  std::printf("{\n");
  std::printf("  \"version\": %u,\n", info.version);
  std::printf("  \"bytes\": %zu,\n", info.bytes);
  std::printf("  \"sections\": %zu,\n", info.sections);
  std::printf("  \"fingerprint\": \"%016llx\",\n", static_cast<ull>(info.fingerprint));
  std::printf("  \"counters\": {\"admitted\": %llu, \"finished\": %llu, "
              "\"rejected\": %llu, \"steps_total\": %llu, \"next_id\": %llu},\n",
              static_cast<ull>(info.streams_admitted), static_cast<ull>(info.streams_finished),
              static_cast<ull>(info.streams_rejected), static_cast<ull>(info.steps_total),
              static_cast<ull>(info.next_id));
  std::printf("  \"policy\": {\"max_streams\": %zu, \"queue_capacity\": %zu, "
              "\"lean_records\": %s, \"per_step_obs\": %s, "
              "\"share_deadline_estimators\": %s},\n",
              info.max_streams, info.queue_capacity, flag(info.lean_records),
              flag(info.per_step_obs), flag(info.share_deadline_estimators));
  std::printf("  \"finished_undrained\": %zu,\n", info.finished);
  print_streams_json("running", info.running, ",");
  print_streams_json("pending", info.pending, "");
  std::printf("}\n");
}

}  // namespace

int run_ckpt(const Args& args) {
  const std::string& command = args.at(0);
  const std::string& path = args.at(1);
  if (args.count() != 2 || (command != "inspect" && command != "validate")) usage();

  const Result<SnapshotInfo> info = describe_snapshot(read_input(path));
  if (command == "validate") {
    if (!info.is_ok()) {
      std::printf("FAIL %s: %s\n", path.c_str(), describe(info.status()).c_str());
      return kFailed;
    }
    const SnapshotInfo& i = info.value();
    std::printf("PASS %s: v%u, %zu bytes, %zu sections, %zu running, "
                "%zu pending, fingerprint %016llx\n",
                path.c_str(), i.version, i.bytes, i.sections, i.running.size(),
                i.pending.size(), static_cast<ull>(i.fingerprint));
    return kOk;
  }
  if (!info.is_ok()) fail(path, info.status());
  if (args.has("--json")) {
    print_json(info.value());
  } else {
    print_text(path, info.value());
  }
  return kOk;
}

}  // namespace awd::cli
