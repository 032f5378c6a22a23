// Forensics suite (ctest label: forensics): the flight recorder ring, the
// structured event log, the .awdfr dump codec, deterministic alarm replay,
// and the StreamEngine's automatic dump/introspection surface
// (DESIGN.md §15).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "core/ckpt.hpp"
#include "core/detection_system.hpp"
#include "obs/event_log.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "reach/backend.hpp"
#include "serve/forensics.hpp"
#include "serve/stream_engine.hpp"
#include "sim/trace.hpp"

namespace awd {
namespace {

using core::AttackKind;
using core::DetectionSystem;
using core::SimulatorCase;
using core::simulator_case;
using obs::EventKind;
using obs::EventLog;
using obs::FlightFrame;
using obs::FlightRecorder;
using serve::DumpReason;
using serve::ForensicsDump;
using serve::ReplayReport;
using serve::StreamEngine;
using serve::StreamEngineOptions;
using serve::StreamId;

/// Cap a case's run length, re-fitting the attack window (and a replay
/// attack's recorded segment, which must end before the attack starts).
void cap_case(SimulatorCase& scase, std::size_t max_steps) {
  scase.steps = std::min(scase.steps, max_steps);
  if (scase.attack_start + scase.attack_duration > scase.steps) {
    scase.attack_start = std::min(scase.attack_start, scase.steps / 2);
    scase.attack_duration =
        std::min(scase.attack_duration, scase.steps - scase.attack_start);
  }
  if (scase.attack_start > 0) {
    scase.replay_record_start =
        std::min(scase.replay_record_start, scase.attack_start - 1);
  }
}

FlightFrame frame_at(std::uint64_t t, double stat = 0.5) {
  FlightFrame f;
  f.t = t;
  f.residual_norm = 0.125 * static_cast<double>(t + 1);
  f.detect_stat = stat;
  f.deadline = 7;
  f.window = 5;
  f.flags = obs::kFrameAttackActive;
  f.health = 0;
  return f;
}

// ------------------------------------------------------------ FlightRecorder

TEST(FlightRecorder, RingEvictsOldestAndKeepsContiguousTail) {
  FlightRecorder recorder(4);
  std::vector<FlightFrame> out;
  for (std::uint64_t t = 0; t < 10; ++t) recorder.record_frame(frame_at(t));
  EXPECT_EQ(recorder.size(), 4u);
  EXPECT_EQ(recorder.capacity(), 4u);
  EXPECT_EQ(recorder.recorded(), 10u);
  recorder.snapshot(out);
  ASSERT_EQ(out.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(out[i].t, 6u + i);
}

TEST(FlightRecorder, SnapshotBelowCapacityIsOldestFirst) {
  FlightRecorder recorder(8);
  std::vector<FlightFrame> out;
  recorder.snapshot(out);
  EXPECT_TRUE(out.empty());
  for (std::uint64_t t = 0; t < 3; ++t) recorder.record_frame(frame_at(t));
  recorder.snapshot(out);
  ASSERT_EQ(out.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(out[i].t, i);
}

TEST(FlightRecorder, ClearForgetsFramesButNotLifetimeCount) {
  FlightRecorder recorder(4);
  for (std::uint64_t t = 0; t < 3; ++t) recorder.record_frame(frame_at(t));
  recorder.clear();
  EXPECT_EQ(recorder.size(), 0u);
  std::vector<FlightFrame> out;
  recorder.snapshot(out);
  EXPECT_TRUE(out.empty());
}

TEST(FlightRecorder, CapacityClampedToAtLeastOne) {
  FlightRecorder recorder(0);
  EXPECT_EQ(recorder.capacity(), 1u);
  recorder.record_frame(frame_at(1));
  recorder.record_frame(frame_at(2));
  std::vector<FlightFrame> out;
  recorder.snapshot(out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].t, 2u);
}

TEST(FlightRecorder, MakeFrameDistillsEveryStepRecordField) {
  sim::StepRecord rec;
  rec.t = 42;
  rec.residual_norm = 0.75;
  rec.detect_stat = 1.25;
  rec.deadline = 9;
  rec.window = 6;
  rec.adaptive_alarm = true;
  rec.fixed_alarm = false;
  rec.attack_active = true;
  rec.unsafe = false;
  rec.sample_missing = true;
  rec.estimate_fallback = true;
  rec.residual_quarantined = true;
  rec.deadline_fallback = false;
  rec.fault = fault::FaultKind::kDropout;
  rec.health = fault::HealthState::kDegraded;

  const FlightFrame f = obs::make_frame(rec);
  EXPECT_EQ(f.t, 42u);
  EXPECT_EQ(f.residual_norm, 0.75);
  EXPECT_EQ(f.detect_stat, 1.25);
  EXPECT_EQ(f.deadline, 9u);
  EXPECT_EQ(f.window, 6u);
  EXPECT_TRUE(f.flag(obs::kFrameAdaptiveAlarm));
  EXPECT_FALSE(f.flag(obs::kFrameFixedAlarm));
  EXPECT_TRUE(f.flag(obs::kFrameAttackActive));
  EXPECT_FALSE(f.flag(obs::kFrameUnsafe));
  EXPECT_TRUE(f.flag(obs::kFrameSampleMissing));
  EXPECT_TRUE(f.flag(obs::kFrameEstimateFallback));
  EXPECT_TRUE(f.flag(obs::kFrameResidualQuarantined));
  EXPECT_FALSE(f.flag(obs::kFrameDeadlineFallback));
  EXPECT_EQ(f.fault, static_cast<std::uint8_t>(fault::FaultKind::kDropout));
  EXPECT_EQ(f.health, static_cast<std::uint8_t>(fault::HealthState::kDegraded));
}

TEST(FlightRecorder, BitIdenticalComparesDoublesAsBitPatterns) {
  FlightFrame a = frame_at(1);
  FlightFrame b = a;
  EXPECT_TRUE(obs::frames_bit_identical(a, b));
  b.detect_stat = std::nextafter(b.detect_stat, 2.0);
  EXPECT_FALSE(obs::frames_bit_identical(a, b));
  // NaN-safe: two frames carrying the same NaN bit pattern are identical
  // (operator== on doubles would say otherwise).
  a.residual_norm = std::nan("");
  b = a;
  EXPECT_TRUE(obs::frames_bit_identical(a, b));
}

// ----------------------------------------------------------------- EventLog

/// Event-log collection follows the metrics gate; these tests force it on
/// and restore the previous state (skip when compiled out).
class EventLogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    was_enabled_ = obs::enabled();
    obs::set_enabled(true);
    if (!obs::enabled()) GTEST_SKIP() << "observability compiled out";
    log_.clear();
  }
  void TearDown() override { obs::set_enabled(was_enabled_); }

  EventLog log_;

 private:
  bool was_enabled_ = true;
};

TEST_F(EventLogTest, KeepsMostRecentEventsAndCountsDrops) {
  log_.set_capacity(4);
  for (std::uint64_t i = 0; i < 10; ++i) {
    log_.log(EventKind::kAlarm, /*stream=*/i, /*shard=*/0, /*step=*/i);
  }
  EXPECT_EQ(log_.logged(), 10u);
  EXPECT_EQ(log_.dropped(), 6u);
  const std::vector<obs::Event> events = log_.collect();
  ASSERT_EQ(events.size(), 4u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].stream, 6u + i);  // oldest first, most recent kept
  }
  // Timestamps are monotone.
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_GE(events[i].ts_ns, events[i - 1].ts_ns);
  }
}

TEST_F(EventLogTest, DisabledLogIsANoOp) {
  obs::set_enabled(false);
  log_.log(EventKind::kAlarm, 1, 0, 1);
  obs::set_enabled(true);
  EXPECT_EQ(log_.logged(), 0u);
  EXPECT_TRUE(log_.collect().empty());
}

TEST_F(EventLogTest, JsonlRendersOneObjectPerLineWithStableNames) {
  log_.log(EventKind::kAlarm, 3, 1, 120, 5, 9, "adaptive");
  log_.log(EventKind::kHealthTransition, 3, 1, 130, 0, 1, "degraded");
  const std::string text = obs::events_jsonl(log_.collect());
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 2);
  EXPECT_NE(text.find("\"event\": \"alarm\""), std::string::npos);
  EXPECT_NE(text.find("\"event\": \"health_transition\""), std::string::npos);
  EXPECT_NE(text.find("\"stream\": 3"), std::string::npos);
  EXPECT_NE(text.find("\"step\": 120"), std::string::npos);
  EXPECT_NE(text.find("\"detail\": \"adaptive\""), std::string::npos);
}

TEST(EventLogNames, EveryKindHasAStableName) {
  const EventKind kinds[] = {EventKind::kAlarm,     EventKind::kHealthTransition,
                             EventKind::kAdmissionReject, EventKind::kQuarantine,
                             EventKind::kCheckpoint, EventKind::kRestore,
                             EventKind::kDump,       EventKind::kCrashFlush};
  for (const EventKind k : kinds) {
    EXPECT_STRNE(obs::event_kind_name(k), "unknown");
  }
}

// --------------------------------------------------------------- dump codec

/// Run a standalone pipeline for `steps` steps and capture every frame.
ForensicsDump captured_dump(const serve::StreamSpec& spec, std::size_t steps,
                            std::size_t depth) {
  ForensicsDump dump;
  dump.reason = DumpReason::kManual;
  dump.stream = 1;
  dump.spec = spec;
  DetectionSystem system(spec.scase, spec.attack, spec.seed, spec.options);
  FlightRecorder recorder(depth);
  sim::StepRecord rec;
  for (std::size_t t = 0; t < steps; ++t) {
    system.step_into(rec);
    recorder.record(rec);
  }
  recorder.snapshot(dump.frames);
  dump.steps_done = steps;
  dump.trigger_step = steps - 1;
  dump.ts_ns = 12345;
  return dump;
}

serve::StreamSpec small_spec(const char* plant = "series_rlc",
                             AttackKind attack = AttackKind::kBias,
                             std::uint64_t seed = 3) {
  serve::StreamSpec spec;
  spec.scase = simulator_case(plant);
  cap_case(spec.scase, 160);
  spec.attack = attack;
  spec.seed = seed;
  spec.steps = spec.scase.steps;
  spec.metrics.post_attack_guard = spec.scase.max_window;
  return spec;
}

TEST(ForensicsCodec, DumpRoundTripsThroughBytes) {
  const serve::StreamSpec spec = small_spec();
  ForensicsDump dump = captured_dump(spec, 120, 64);
  dump.reason = DumpReason::kAlarm;
  dump.shard = 2;
  dump.trigger_step = 100;

  const std::vector<std::uint8_t> bytes = serve::encode_dump(dump);
  core::Result<ForensicsDump> decoded = serve::decode_dump(bytes);
  ASSERT_TRUE(decoded.is_ok()) << decoded.status().message();
  const ForensicsDump& got = decoded.value();
  EXPECT_EQ(got.reason, DumpReason::kAlarm);
  EXPECT_EQ(got.stream, dump.stream);
  EXPECT_EQ(got.shard, 2u);
  EXPECT_EQ(got.trigger_step, 100u);
  EXPECT_EQ(got.steps_done, 120u);
  EXPECT_EQ(got.ts_ns, 12345u);
  EXPECT_EQ(got.spec.scase.key, spec.scase.key);
  EXPECT_EQ(got.spec.attack, spec.attack);
  EXPECT_EQ(got.spec.seed, spec.seed);
  EXPECT_EQ(got.spec.steps, spec.steps);
  ASSERT_EQ(got.frames.size(), dump.frames.size());
  for (std::size_t i = 0; i < got.frames.size(); ++i) {
    EXPECT_TRUE(obs::frames_bit_identical(got.frames[i], dump.frames[i]))
        << "frame " << i;
  }
}

TEST(ForensicsCodec, RejectsCorruptTruncatedAndInconsistentImages) {
  const ForensicsDump dump = captured_dump(small_spec(), 60, 32);
  const std::vector<std::uint8_t> bytes = serve::encode_dump(dump);

  // Bit flip anywhere in the payload: the per-section CRC (or the spec
  // fingerprint) catches it.
  std::vector<std::uint8_t> flipped = bytes;
  flipped[flipped.size() / 2] ^= 0x40;
  EXPECT_FALSE(serve::decode_dump(flipped).is_ok());

  // Truncation.
  std::vector<std::uint8_t> truncated(bytes.begin(), bytes.begin() + 40);
  EXPECT_FALSE(serve::decode_dump(truncated).is_ok());

  // Structurally inconsistent: a gap in the frame sequence.
  ForensicsDump gapped = dump;
  ASSERT_GE(gapped.frames.size(), 3u);
  gapped.frames.erase(gapped.frames.begin() + 1);
  const core::Result<ForensicsDump> r = serve::decode_dump(serve::encode_dump(gapped));
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), core::StatusCode::kDataLoss);

  // Trigger outside the captured window.
  ForensicsDump bad_trigger = dump;
  bad_trigger.trigger_step = dump.steps_done + 10;
  EXPECT_FALSE(serve::decode_dump(serve::encode_dump(bad_trigger)).is_ok());
}

// The .awdfr bytes of one fixed dump per Table-1 plant, pinned as literals:
// the round trips above compare an encoder with the decoder of the same
// build, so only a pin catches a change that moves both together.
TEST(ForensicsCodec, EncodeDumpBytesPinned) {
  struct Pin {
    const char* plant;
    std::size_t bytes;
    std::uint64_t fnv;
  };
  const Pin pins[] = {
      {"aircraft_pitch", 10765, 0x81615a5640447ec2ULL},
      {"vehicle_turning", 10515, 0x6286cb449d41521aULL},
      {"series_rlc", 10629, 0x9a77dd3c739897ddULL},
      {"dc_motor", 10749, 0xcc7e905ac4182fb0ULL},
      {"quadrotor", 13014, 0xb7d857d438f8222dULL},
  };
  for (const Pin& pin : pins) {
    ForensicsDump dump;
    dump.spec.scase = simulator_case(pin.plant);
    dump.spec.seed = 3;
    dump.spec.steps = dump.spec.scase.steps;
    dump.reason = DumpReason::kAlarm;
    dump.stream = 9;
    dump.shard = 1;
    dump.trigger_step = 299;
    dump.steps_done = 300;
    dump.ts_ns = 42;
    for (std::uint64_t t = 44; t < 300; ++t) {
      FlightFrame f;
      f.t = t;
      f.residual_norm = 0.1 * static_cast<double>(t);
      f.detect_stat = 1.0 / static_cast<double>(t + 1);
      f.deadline = static_cast<std::uint32_t>(t % 7);
      f.window = static_cast<std::uint32_t>(t % 11);
      f.flags = static_cast<std::uint16_t>(t & 0xFF);
      f.fault = 0;
      f.health = static_cast<std::uint8_t>(t % 3);
      dump.frames.push_back(f);
    }
    const std::vector<std::uint8_t> bytes = serve::encode_dump(dump);
    EXPECT_EQ(bytes.size(), pin.bytes) << pin.plant;
    EXPECT_EQ(core::ckpt::fnv1a64(bytes.data(), bytes.size()), pin.fnv) << pin.plant;
    EXPECT_TRUE(serve::decode_dump(bytes).is_ok()) << pin.plant;
  }
}

// ------------------------------------------------------------------- replay

TEST(ForensicsReplay, ManualDumpReplaysBitIdentically) {
  const ForensicsDump dump = captured_dump(small_spec(), 120, 64);
  core::Result<ReplayReport> replayed = serve::replay_dump(dump);
  ASSERT_TRUE(replayed.is_ok()) << replayed.status().message();
  const ReplayReport& rep = replayed.value();
  EXPECT_EQ(rep.steps_replayed, 120u);
  EXPECT_EQ(rep.frames_compared, dump.frames.size());
  EXPECT_TRUE(rep.frames_identical) << rep.mismatch;
  EXPECT_TRUE(rep.trigger_reproduced);
  EXPECT_TRUE(rep.verified());
}

TEST(ForensicsReplay, DetectsATamperedFrame) {
  ForensicsDump dump = captured_dump(small_spec(), 80, 40);
  ASSERT_FALSE(dump.frames.empty());
  dump.frames[dump.frames.size() / 2].detect_stat += 1e-9;
  core::Result<ReplayReport> replayed = serve::replay_dump(dump);
  ASSERT_TRUE(replayed.is_ok());
  EXPECT_FALSE(replayed.value().frames_identical);
  EXPECT_FALSE(replayed.value().verified());
  EXPECT_FALSE(replayed.value().mismatch.empty());
}

// ------------------------------------------------------------- StreamEngine

/// An attacked spec that reliably alarms (bias attack on the Table-1 case;
/// a 300-step cap leaves 150 attacked steps, far beyond the detection delay).
serve::StreamSpec alarming_spec(std::uint64_t seed = 7) {
  serve::StreamSpec spec;
  spec.scase = simulator_case("aircraft_pitch");
  cap_case(spec.scase, 300);
  spec.attack = AttackKind::kBias;
  spec.seed = seed;
  spec.steps = spec.scase.steps;
  spec.metrics.post_attack_guard = spec.scase.max_window;
  return spec;
}

TEST(EngineForensics, AutoDumpOnAlarmReplaysBitIdentically) {
  StreamEngine engine({.threads = 2, .flight_recorder_depth = 256});
  core::Result<StreamId> id = engine.submit(alarming_spec());
  ASSERT_TRUE(id.is_ok());
  engine.run_to_completion();

  const serve::EngineIntrospection intro = engine.introspect();
  ASSERT_GE(intro.dumps_written, 1u) << "bias attack did not trigger an alarm dump";

  core::Result<std::vector<std::uint8_t>> image = engine.last_dump(id.value());
  ASSERT_TRUE(image.is_ok()) << image.status().message();
  core::Result<ForensicsDump> dump = serve::decode_dump(image.value());
  ASSERT_TRUE(dump.is_ok()) << dump.status().message();
  EXPECT_EQ(dump.value().reason, DumpReason::kAlarm);
  EXPECT_EQ(dump.value().stream, id.value());

  core::Result<ReplayReport> replayed = serve::replay_dump(dump.value());
  ASSERT_TRUE(replayed.is_ok()) << replayed.status().message();
  EXPECT_TRUE(replayed.value().verified()) << replayed.value().mismatch;
  EXPECT_GT(replayed.value().trigger_stat, 0.0)
      << "the trigger step must carry a live window statistic";
}

TEST(EngineForensics, AutoDumpsAreThreadCountInvariant) {
  std::vector<std::uint8_t> serial_image;
  std::vector<std::uint8_t> pooled_image;
  for (int pass = 0; pass < 2; ++pass) {
    StreamEngine engine({.threads = pass == 0 ? std::size_t{1} : std::size_t{4},
                         .flight_recorder_depth = 128});
    core::Result<StreamId> id = engine.submit(alarming_spec());
    ASSERT_TRUE(id.is_ok());
    engine.run_to_completion();
    core::Result<std::vector<std::uint8_t>> image = engine.last_dump(id.value());
    ASSERT_TRUE(image.is_ok()) << image.status().message();
    // The meta timestamp is wall-clock; compare the decoded content instead
    // of raw bytes.
    core::Result<ForensicsDump> dump = serve::decode_dump(image.value());
    ASSERT_TRUE(dump.is_ok());
    (pass == 0 ? serial_image : pooled_image) = serve::encode_dump([&] {
      ForensicsDump d = dump.value();
      d.ts_ns = 0;
      d.shard = 0;
      return d;
    }());
  }
  EXPECT_EQ(serial_image, pooled_image)
      << "forensic dump content depends on the thread count";
}

// The engine's own auto-dump of a fixed 1-thread run, pinned as a literal
// once its wall-clock timestamp is zeroed.
TEST(EngineForensics, FirstAlarmDumpBytesPinned) {
  StreamEngine engine({.threads = 1, .flight_recorder_depth = 256});
  core::Result<StreamId> id = engine.submit(alarming_spec());
  ASSERT_TRUE(id.is_ok());
  for (int k = 0; k < 300 && engine.introspect().dumps_written == 0; ++k) engine.step_all();
  core::Result<std::vector<std::uint8_t>> image = engine.last_dump(id.value());
  ASSERT_TRUE(image.is_ok()) << image.status().message();
  core::Result<ForensicsDump> dump = serve::decode_dump(image.value());
  ASSERT_TRUE(dump.is_ok()) << dump.status().message();
  EXPECT_EQ(dump.value().trigger_step, 45u);
  EXPECT_EQ(dump.value().frames.size(), 46u);
  ForensicsDump zeroed = dump.value();
  zeroed.ts_ns = 0;
  const std::vector<std::uint8_t> bytes = serve::encode_dump(zeroed);
  EXPECT_EQ(bytes.size(), 2785u);
  EXPECT_EQ(core::ckpt::fnv1a64(bytes.data(), bytes.size()), 0xa0a074f7812ff2c9ULL);
}

/// 64 streams over serve_steady's four families (aircraft_pitch and
/// series_rlc on the table backend) plus 12-state quadrotor, with rotating
/// attacks and staggered run lengths so dumps land on every shard.
std::vector<serve::StreamSpec> mixed_fleet() {
  const char* const plants[] = {"aircraft_pitch", "vehicle_turning", "series_rlc", "dc_motor",
                                "quadrotor"};
  const AttackKind attacks[] = {AttackKind::kBias, AttackKind::kIntermittentBias,
                                AttackKind::kDelay, AttackKind::kReplay};
  std::vector<serve::StreamSpec> fleet;
  for (std::size_t i = 0; i < 64; ++i) {
    serve::StreamSpec spec;
    const std::string plant = plants[i % 5];
    spec.scase = simulator_case(plant);
    if (plant == "aircraft_pitch" || plant == "series_rlc") {
      spec.scase.reach_backend = reach::BackendKind::kTable;
    }
    cap_case(spec.scase, 180 + 20 * (i % 4));
    spec.attack = attacks[(i / 5) % 4];
    spec.seed = 100 + i;
    spec.steps = spec.scase.steps;
    spec.metrics.post_attack_guard = spec.scase.max_window;
    fleet.push_back(std::move(spec));
  }
  return fleet;
}

/// A dump image with its layout-dependent meta (timestamp, shard) zeroed.
std::vector<std::uint8_t> without_layout(const std::vector<std::uint8_t>& image) {
  core::Result<ForensicsDump> dump = serve::decode_dump(image);
  EXPECT_TRUE(dump.is_ok()) << dump.status().message();
  if (!dump.is_ok()) return {};
  ForensicsDump d = dump.value();
  d.ts_ns = 0;
  d.shard = 0;
  return serve::encode_dump(d);
}

/// Every retained dump of `ids`, as the engine holds it.
std::map<StreamId, std::vector<std::uint8_t>> retained_dumps(
    const StreamEngine& engine, const std::vector<StreamId>& ids) {
  std::map<StreamId, std::vector<std::uint8_t>> out;
  for (const StreamId id : ids) {
    core::Result<std::vector<std::uint8_t>> image = engine.last_dump(id);
    if (image.is_ok()) out.emplace(id, std::move(image).value());
  }
  return out;
}

/// Each retained dump's file in `dir` holds exactly the retained bytes.
void expect_files_match(const std::filesystem::path& dir,
                        const std::map<StreamId, std::vector<std::uint8_t>>& dumps) {
  for (const auto& [id, image] : dumps) {
    core::Result<ForensicsDump> dump = serve::decode_dump(image);
    ASSERT_TRUE(dump.is_ok()) << dump.status().message();
    const std::string name = "stream_" + std::to_string(id) + "_" +
                             serve::dump_reason_name(dump.value().reason) + "_" +
                             std::to_string(dump.value().trigger_step) + ".awdfr";
    core::Result<std::vector<std::uint8_t>> file =
        core::ckpt::read_file((dir / name).string());
    ASSERT_TRUE(file.is_ok()) << name;
    EXPECT_EQ(file.value(), image) << name;
  }
}

// Dumps are encoded on the shard workers; what they hold must not depend on
// the thread count or on step_all versus run_to_completion driving.
TEST(EngineForensics, WorkerEncodedDumpsMatchAcrossThreadCounts) {
  const std::vector<serve::StreamSpec> fleet = mixed_fleet();
  for (const bool chunked : {false, true}) {
    std::map<StreamId, std::vector<std::uint8_t>> serial_mid;
    std::map<StreamId, std::vector<std::uint8_t>> serial_end;
    for (const std::size_t threads : {std::size_t{1}, std::size_t{3}, std::size_t{7}}) {
      SCOPED_TRACE((chunked ? "run_to_completion, threads " : "step_all, threads ") +
                   std::to_string(threads));
      const std::filesystem::path dir =
          std::filesystem::temp_directory_path() /
          ("awd_forensics_worker_dumps_" + std::to_string(threads));
      std::filesystem::remove_all(dir);
      std::filesystem::create_directories(dir);
      std::map<StreamId, std::vector<std::uint8_t>> mid;
      std::map<StreamId, std::vector<std::uint8_t>> end;
      std::vector<StreamId> ids;
      {
        StreamEngine engine({.threads = threads,
                             .flight_recorder_depth = 64,
                             .forensics_dir = dir.string()});
        for (const serve::StreamSpec& spec : fleet) {
          core::Result<StreamId> id = engine.submit(spec);
          ASSERT_TRUE(id.is_ok()) << id.status().message();
          ids.push_back(id.value());
        }
        if (!chunked) {
          for (int k = 0; k < 120; ++k) engine.step_all();
          mid = retained_dumps(engine, ids);
          expect_files_match(dir, mid);
          ASSERT_TRUE(engine.rebalance(3).is_ok());
          EXPECT_EQ(retained_dumps(engine, ids), mid) << "rebalance changed a retained dump";
        }
        if (chunked) {
          engine.run_to_completion();
        } else {
          while (engine.step_all() > 0) {
          }
        }
        end = retained_dumps(engine, ids);
        EXPECT_GE(end.size(), 32u) << "too few streams dumped to compare";
        expect_files_match(dir, end);
        for (const StreamId id : ids) ASSERT_TRUE(engine.drain(id).is_ok());
        for (const StreamId id : ids) {
          EXPECT_EQ(engine.last_dump(id).status().code(), core::StatusCode::kOutOfRange);
        }
      }
      std::filesystem::remove_all(dir);
      for (auto* dumps : {&mid, &end}) {
        for (auto& [id, image] : *dumps) image = without_layout(image);
      }
      if (threads == 1) {
        serial_mid = std::move(mid);
        serial_end = std::move(end);
      } else {
        EXPECT_EQ(mid, serial_mid) << "mid-run dumps depend on the thread count";
        EXPECT_EQ(end, serial_end) << "final dumps depend on the thread count";
      }
    }
  }
}

TEST(EngineForensics, ManualDumpErrorsAreTyped) {
  StreamEngine with_recorder({.threads = 1, .flight_recorder_depth = 16});
  EXPECT_EQ(with_recorder.dump_stream(99).status().code(),
            core::StatusCode::kOutOfRange);
  EXPECT_EQ(with_recorder.last_dump(99).status().code(), core::StatusCode::kOutOfRange);

  StreamEngine disabled({.threads = 1, .flight_recorder_depth = 0});
  core::Result<StreamId> id = disabled.submit(small_spec());
  ASSERT_TRUE(id.is_ok());
  disabled.step_all();
  EXPECT_EQ(disabled.dump_stream(id.value()).status().code(),
            core::StatusCode::kUnavailable);
  // Triggers on an undumpable stream are counted, never fatal.
  disabled.run_to_completion();
  EXPECT_EQ(disabled.introspect().dumps_written, 0u);
}

TEST(EngineForensics, ManualMidRunDumpReplays) {
  StreamEngine engine({.threads = 1, .flight_recorder_depth = 64});
  core::Result<StreamId> id = engine.submit(small_spec());
  ASSERT_TRUE(id.is_ok());
  for (int k = 0; k < 50; ++k) engine.step_all();
  core::Result<std::vector<std::uint8_t>> image = engine.dump_stream(id.value());
  ASSERT_TRUE(image.is_ok()) << image.status().message();
  core::Result<ForensicsDump> dump = serve::decode_dump(image.value());
  ASSERT_TRUE(dump.is_ok()) << dump.status().message();
  EXPECT_EQ(dump.value().reason, DumpReason::kManual);
  EXPECT_EQ(dump.value().steps_done, 50u);
  core::Result<ReplayReport> replayed = serve::replay_dump(dump.value());
  ASSERT_TRUE(replayed.is_ok());
  EXPECT_TRUE(replayed.value().verified()) << replayed.value().mismatch;
}

TEST(EngineForensics, DumpAllStreamsWritesReadableFiles) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "awd_forensics_dump_all";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  StreamEngine engine({.threads = 2, .flight_recorder_depth = 32});
  ASSERT_TRUE(engine.submit(small_spec("series_rlc", AttackKind::kBias, 1)).is_ok());
  ASSERT_TRUE(engine.submit(small_spec("dc_motor", AttackKind::kNone, 2)).is_ok());
  for (int k = 0; k < 30; ++k) engine.step_all();

  const std::size_t written = engine.dump_all_streams(dir.string());
  EXPECT_EQ(written, 2u);
  std::size_t decoded = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    EXPECT_EQ(entry.path().extension(), ".awdfr");
    core::Result<std::vector<std::uint8_t>> bytes =
        core::ckpt::read_file(entry.path().string());
    ASSERT_TRUE(bytes.is_ok());
    core::Result<ForensicsDump> dump = serve::decode_dump(bytes.value());
    ASSERT_TRUE(dump.is_ok()) << entry.path() << ": " << dump.status().message();
    EXPECT_EQ(dump.value().reason, DumpReason::kCrash);
    EXPECT_EQ(dump.value().steps_done, 30u);
    ++decoded;
  }
  EXPECT_EQ(decoded, 2u);
  std::filesystem::remove_all(dir);
}

TEST(EngineForensics, RecorderSlotIsClearedForReusedSlots) {
  // One slot, two consecutive streams: the second stream's dump must not
  // contain frames from the first.
  StreamEngine engine({.threads = 1, .max_streams = 1, .flight_recorder_depth = 64});
  core::Result<StreamId> first = engine.submit(small_spec("series_rlc", AttackKind::kNone, 1));
  ASSERT_TRUE(first.is_ok());
  engine.run_to_completion();
  ASSERT_TRUE(engine.drain(first.value()).is_ok());

  core::Result<StreamId> second = engine.submit(small_spec("series_rlc", AttackKind::kNone, 2));
  ASSERT_TRUE(second.is_ok());
  for (int k = 0; k < 10; ++k) engine.step_all();
  core::Result<std::vector<std::uint8_t>> image = engine.dump_stream(second.value());
  ASSERT_TRUE(image.is_ok());
  core::Result<ForensicsDump> dump = serve::decode_dump(image.value());
  ASSERT_TRUE(dump.is_ok()) << dump.status().message();
  ASSERT_EQ(dump.value().frames.size(), 10u);
  EXPECT_EQ(dump.value().frames.front().t, 0u);
  EXPECT_EQ(dump.value().stream, second.value());
}

// ------------------------------------------------------------ introspection

TEST(EngineIntrospect, TalliesMatchEngineState) {
  StreamEngine engine({.threads = 2, .flight_recorder_depth = 32});
  ASSERT_TRUE(engine.submit(small_spec("series_rlc", AttackKind::kNone, 1)).is_ok());
  ASSERT_TRUE(engine.submit(small_spec("dc_motor", AttackKind::kNone, 2)).is_ok());
  for (int k = 0; k < 20; ++k) engine.step_all();

  const serve::EngineIntrospection intro = engine.introspect();
  EXPECT_EQ(intro.counters.running, 2u);
  EXPECT_EQ(intro.recorder_depth, 32u);
  ASSERT_EQ(intro.shard_info.size(), engine.shards());
  std::size_t streams = 0;
  std::uint64_t steps = 0;
  std::size_t frames = 0;
  for (const serve::ShardIntrospection& s : intro.shard_info) {
    streams += s.streams;
    steps += s.steps_done;
    frames += s.recorder_frames;
  }
  EXPECT_EQ(streams, 2u);
  EXPECT_EQ(steps, 40u);
  EXPECT_EQ(frames, 40u);  // 20 steps per stream, both under the 32-frame cap
}

TEST(EngineIntrospect, JsonCarriesCountersAndShardTallies) {
  StreamEngine engine({.threads = 2, .flight_recorder_depth = 8});
  ASSERT_TRUE(engine.submit(small_spec()).is_ok());
  for (int k = 0; k < 5; ++k) engine.step_all();
  const std::string json = serve::introspection_json(engine.introspect());
  EXPECT_NE(json.find("\"running\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"recorder_depth\": 8"), std::string::npos);
  EXPECT_NE(json.find("\"shard_info\": ["), std::string::npos);
  EXPECT_NE(json.find("\"recorder_frames\": 5"), std::string::npos);
  EXPECT_NE(json.find("\"dumps_written\""), std::string::npos);
}

// -------------------------------------------------------------- event wiring

class EngineEventTest : public ::testing::Test {
 protected:
  void SetUp() override {
    was_enabled_ = obs::enabled();
    obs::set_enabled(true);
    if (!obs::enabled()) GTEST_SKIP() << "observability compiled out";
    EventLog::global().clear();
  }
  void TearDown() override {
    EventLog::global().clear();
    obs::set_enabled(was_enabled_);
  }

  static std::size_t count_kind(const std::vector<obs::Event>& events, EventKind kind) {
    std::size_t n = 0;
    for (const obs::Event& e : events) {
      if (e.kind == kind) ++n;
    }
    return n;
  }

 private:
  bool was_enabled_ = true;
};

TEST_F(EngineEventTest, AlarmAndDumpEventsCarryTheStreamId) {
  StreamEngine engine({.threads = 1, .flight_recorder_depth = 128});
  core::Result<StreamId> id = engine.submit(alarming_spec());
  ASSERT_TRUE(id.is_ok());
  engine.run_to_completion();

  const std::vector<obs::Event> events = EventLog::global().collect();
  EXPECT_GE(count_kind(events, EventKind::kAlarm), 1u);
  EXPECT_GE(count_kind(events, EventKind::kDump), 1u);
  for (const obs::Event& e : events) {
    if (e.kind == EventKind::kAlarm || e.kind == EventKind::kDump) {
      EXPECT_EQ(e.stream, id.value());
    }
  }
}

// kDump's arg0 is the frame count on the crash path too, not the image size.
TEST_F(EngineEventTest, CrashPathDumpEventsCountFrames) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "awd_forensics_crash_events";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  StreamEngine engine({.threads = 1, .flight_recorder_depth = 32});
  core::Result<StreamId> id = engine.submit(small_spec("series_rlc", AttackKind::kNone, 1));
  ASSERT_TRUE(id.is_ok());
  for (int k = 0; k < 50; ++k) engine.step_all();
  const std::size_t recorded = engine.introspect().shard_info.at(0).recorder_frames;
  ASSERT_EQ(recorded, 32u);

  EventLog::global().clear();
  ASSERT_EQ(engine.dump_all_streams(dir.string()), 1u);
  std::size_t dumps = 0;
  for (const obs::Event& e : EventLog::global().collect()) {
    if (e.kind != EventKind::kDump) continue;
    ++dumps;
    EXPECT_EQ(e.stream, id.value());
    EXPECT_EQ(e.arg0, static_cast<std::int64_t>(recorded));
    EXPECT_EQ(e.arg1, static_cast<std::int64_t>(DumpReason::kCrash));
  }
  EXPECT_EQ(dumps, 1u);
  std::filesystem::remove_all(dir);
}

TEST_F(EngineEventTest, AdmissionRejectAndCheckpointAreLogged) {
  StreamEngine engine({.threads = 1, .max_streams = 1, .queue_capacity = 1});
  ASSERT_TRUE(engine.submit(small_spec("series_rlc", AttackKind::kNone, 1)).is_ok());
  ASSERT_TRUE(engine.submit(small_spec("series_rlc", AttackKind::kNone, 2)).is_ok());
  EXPECT_FALSE(engine.submit(small_spec("series_rlc", AttackKind::kNone, 3)).is_ok());
  engine.step_all();
  ASSERT_TRUE(engine.checkpoint().is_ok());

  const std::vector<obs::Event> events = EventLog::global().collect();
  EXPECT_EQ(count_kind(events, EventKind::kAdmissionReject), 1u);
  EXPECT_EQ(count_kind(events, EventKind::kCheckpoint), 1u);
}

}  // namespace
}  // namespace awd
