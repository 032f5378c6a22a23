// Checkpoint/restore acceptance tests (versioned stream checkpoint/restore
// with elastic resharding).  The contract under test: interrupt a
// batch mid-run, checkpoint, restore into a fresh engine with a *different*
// shard count, continue — and every drained stream must be bitwise equal to
// the uninterrupted run.  Plus the failure modes: corrupt, truncated and
// version-mismatched snapshots come back as typed Status errors; restore
// demands an empty engine and leaves it untouched when it rejects an image;
// and the image bytes of a fixed run are pinned.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "awd.hpp"

namespace {

using namespace awd;

/// Exact (bitwise for the doubles) equality of two RunMetrics.
void expect_metrics_equal(const RunMetrics& got, const RunMetrics& want,
                          const std::string& what) {
  EXPECT_EQ(got.fp_rate, want.fp_rate) << what;
  EXPECT_EQ(got.first_alarm_after_onset, want.first_alarm_after_onset) << what;
  EXPECT_EQ(got.detection_delay, want.detection_delay) << what;
  EXPECT_EQ(got.deadline_at_onset, want.deadline_at_onset) << what;
  EXPECT_EQ(got.fp_experiment, want.fp_experiment) << what;
  EXPECT_EQ(got.deadline_miss, want.deadline_miss) << what;
  EXPECT_EQ(got.false_negative, want.false_negative) << what;
  EXPECT_EQ(got.first_unsafe, want.first_unsafe) << what;
}

void expect_results_equal(const serve::StreamResult& got,
                          const serve::StreamResult& want, const std::string& what) {
  EXPECT_EQ(got.id, want.id) << what;
  EXPECT_EQ(got.status.code(), want.status.code()) << what;
  EXPECT_EQ(got.steps, want.steps) << what;
  expect_metrics_equal(got.adaptive, want.adaptive, what + " (adaptive)");
  expect_metrics_equal(got.fixed, want.fixed, what + " (fixed)");
  EXPECT_EQ(got.final_health, want.final_health) << what;
  EXPECT_EQ(got.adaptive_evaluations, want.adaptive_evaluations) << what;
}

/// Recompute the header CRC after an intentional in-place header edit.
void fix_header_crc(std::vector<std::uint8_t>& img) {
  const std::uint32_t crc =
      core::ckpt::crc32(img.data(), core::ckpt::kHeaderSize - 4);
  for (int i = 0; i < 4; ++i) {
    img[core::ckpt::kHeaderSize - 4 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(crc >> (8 * i));
  }
}

constexpr const char* kPlants[] = {"aircraft_pitch", "vehicle_turning",
                                   "series_rlc", "dc_motor"};
constexpr AttackKind kAttacks[] = {AttackKind::kBias, AttackKind::kDelay,
                                   AttackKind::kReplay, AttackKind::kFreeze};
constexpr std::uint64_t kSeeds = 20;

/// Submit the acceptance matrix (4 plants x kSeeds seeds, attack varied per
/// seed) into `engine`; returns the ids in submission order.
std::vector<serve::StreamId> submit_matrix(serve::StreamEngine& engine) {
  std::vector<serve::StreamId> ids;
  for (const char* key : kPlants) {
    const SimulatorCase scase = simulator_case(key);
    for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
      Result<serve::StreamId> id = engine.submit(
          {.scase = scase, .attack = kAttacks[seed % 4], .seed = seed});
      EXPECT_TRUE(id.is_ok()) << id.status().message();
      ids.push_back(id.value());
    }
  }
  return ids;
}

// The acceptance differential: run part of the batch, checkpoint (with streams
// still pending in the queue, so the snapshot carries running AND queued
// sections), then restore at shard counts 1/2/4/8 and finish.  Every layout
// must reproduce the uninterrupted run bit for bit.
TEST(EngineCheckpoint, ElasticReshardDifferential) {
  // Uninterrupted reference.
  serve::StreamEngine reference({.threads = 2, .max_streams = 32, .queue_capacity = 1024});
  const std::vector<serve::StreamId> ids = submit_matrix(reference);
  reference.run_to_completion();
  std::vector<serve::StreamResult> want;
  for (serve::StreamId id : ids) {
    Result<serve::StreamResult> r = reference.drain(id);
    ASSERT_TRUE(r.is_ok());
    want.push_back(r.value());
  }

  // Interrupted run: step the admitted cohort partway, then checkpoint.
  serve::StreamEngine interrupted(
      {.threads = 2, .max_streams = 32, .queue_capacity = 1024});
  ASSERT_EQ(submit_matrix(interrupted), ids);  // same ids, same order
  for (int k = 0; k < 37; ++k) interrupted.step_all();
  Result<std::vector<std::uint8_t>> snap = interrupted.checkpoint();
  ASSERT_TRUE(snap.is_ok()) << snap.status().message();

  for (std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                             std::size_t{8}}) {
    serve::StreamEngine restored({.threads = shards});
    ASSERT_TRUE(restored.restore(snap.value()).is_ok()) << "shards " << shards;
    restored.run_to_completion();
    const serve::EngineSnapshot counters = restored.snapshot();
    EXPECT_EQ(counters.streams_finished, ids.size()) << "shards " << shards;
    for (std::size_t i = 0; i < ids.size(); ++i) {
      Result<serve::StreamResult> r = restored.drain(ids[i]);
      ASSERT_TRUE(r.is_ok()) << "shards " << shards << " stream " << ids[i];
      expect_results_equal(r.value(), want[i],
                           "shards " + std::to_string(shards) + " stream " +
                               std::to_string(ids[i]));
    }
  }
}

// rebalance() moves every live stream into a new shard layout in place:
// resharding a live engine mid-attack must not perturb any stream, and the
// engine's checkpoint image (which carries no layout) must not change.
TEST(EngineCheckpoint, RebalanceMidRunBitIdentical) {
  serve::StreamEngine reference({.threads = 1});
  const std::vector<serve::StreamId> ids = submit_matrix(reference);
  reference.run_to_completion();

  serve::StreamEngine engine({.threads = 1, .max_streams = 32});
  ASSERT_EQ(submit_matrix(engine), ids);
  for (int k = 0; k < 25; ++k) engine.step_all();
  const std::vector<std::uint8_t> before = engine.checkpoint().value();
  ASSERT_TRUE(engine.rebalance(4).is_ok());
  EXPECT_EQ(engine.shards(), 4u);
  EXPECT_EQ(engine.checkpoint().value(), before);
  for (int k = 0; k < 25; ++k) engine.step_all();
  ASSERT_TRUE(engine.rebalance(2).is_ok());
  engine.run_to_completion();

  for (serve::StreamId id : ids) {
    Result<serve::StreamResult> got = engine.drain(id);
    Result<serve::StreamResult> want = reference.drain(id);
    ASSERT_TRUE(got.is_ok() && want.is_ok());
    expect_results_equal(got.value(), want.value(),
                         "rebalanced stream " + std::to_string(id));
  }
}

// Undrained finished results ride along in the snapshot and restore intact.
TEST(EngineCheckpoint, FinishedResultsSurviveRestore) {
  const SimulatorCase scase = simulator_case("dc_motor");
  serve::StreamEngine engine({.threads = 1});
  Result<serve::StreamId> done = engine.submit(
      {.scase = scase, .attack = AttackKind::kBias, .seed = 3, .steps = 200});
  Result<serve::StreamId> live = engine.submit(
      {.scase = scase, .attack = AttackKind::kFreeze, .seed = 4});
  ASSERT_TRUE(done.is_ok() && live.is_ok());
  for (int k = 0; k < 250; ++k) engine.step_all();  // first stream finishes
  ASSERT_EQ(engine.status(done.value()).value().state, serve::StreamState::kFinished);

  Result<std::vector<std::uint8_t>> snap = engine.checkpoint();
  ASSERT_TRUE(snap.is_ok());
  engine.run_to_completion();
  const serve::StreamResult want_done = engine.drain(done.value()).value();
  const serve::StreamResult want_live = engine.drain(live.value()).value();

  serve::StreamEngine restored({.threads = 2});
  ASSERT_TRUE(restored.restore(snap.value()).is_ok());
  restored.run_to_completion();
  expect_results_equal(restored.drain(done.value()).value(), want_done, "finished");
  expect_results_equal(restored.drain(live.value()).value(), want_live, "live");

  // next_id restored: new submissions get fresh ids, not collisions.
  Result<serve::StreamId> next = restored.submit(
      {.scase = scase, .attack = AttackKind::kBias, .seed = 5, .steps = 200});
  ASSERT_TRUE(next.is_ok());
  EXPECT_GT(next.value(), live.value());
}

TEST(EngineCheckpoint, CorruptSnapshotsRejectedTyped) {
  const SimulatorCase scase = simulator_case("series_rlc");
  serve::StreamEngine engine({.threads = 1});
  ASSERT_TRUE(
      engine.submit({.scase = scase, .attack = AttackKind::kReplay, .seed = 9})
          .is_ok());
  for (int k = 0; k < 10; ++k) engine.step_all();
  const std::vector<std::uint8_t> good = engine.checkpoint().value();

  // restore and describe_snapshot share one decoder, so both reject the
  // image with the same code.
  const auto expect_rejected = [](const std::vector<std::uint8_t>& img, StatusCode code,
                                  const std::string& what) {
    serve::StreamEngine fresh({.threads = 1});
    const Status s = fresh.restore(img);
    ASSERT_FALSE(s.is_ok()) << what;
    EXPECT_EQ(s.code(), code) << what << ": " << s.message();
    const Result<serve::SnapshotInfo> info = serve::describe_snapshot(img);
    ASSERT_FALSE(info.is_ok()) << what;
    EXPECT_EQ(info.status().code(), code) << what;
    EXPECT_EQ(info.status().message(), s.message()) << what;
  };

  // Bit flip in a section payload -> kDataLoss, never UB.
  {
    std::vector<std::uint8_t> img = good;
    img[img.size() / 2] ^= 0x10;
    expect_rejected(img, StatusCode::kDataLoss, "bit flip");
  }
  // Truncation anywhere -> kDataLoss.
  for (std::size_t len : {std::size_t{0}, std::size_t{10}, core::ckpt::kHeaderSize,
                          good.size() / 2, good.size() - 1}) {
    const std::vector<std::uint8_t> img(good.begin(),
                                        good.begin() + static_cast<long>(len));
    expect_rejected(img, StatusCode::kDataLoss, "len " + std::to_string(len));
  }
  // Future format version -> kUnimplemented (the upgrade signal).
  {
    std::vector<std::uint8_t> img = good;
    img[8] = static_cast<std::uint8_t>(core::ckpt::kFormatVersion + 1);
    fix_header_crc(img);
    expect_rejected(img, StatusCode::kUnimplemented, "future version");
  }
  // Doctored fingerprint (CRC fixed up so parsing succeeds) -> the engine's
  // own fingerprint verification catches the config mismatch.
  {
    std::vector<std::uint8_t> img = good;
    img[16] ^= 0xFF;
    fix_header_crc(img);
    expect_rejected(img, StatusCode::kDataLoss, "doctored fingerprint");
    serve::StreamEngine fresh({.threads = 1});
    EXPECT_EQ(fresh.restore(img).message(), "snapshot fingerprint mismatch");
  }
  // A well-framed image whose finished result carries an out-of-range status
  // code -> kDataLoss from the result decoder.
  {
    core::ckpt::SnapshotBuilder builder;
    core::ckpt::Writer policy;
    policy.u64(8);    // max_streams
    policy.u64(64);   // queue_capacity
    policy.b(true);   // lean_records
    policy.b(false);  // per_step_obs
    policy.b(true);   // share_deadline_estimators
    core::ckpt::Writer& meta = builder.section(serve::kSectionEngineMeta);
    for (int k = 0; k < 5; ++k) meta.u64(1);  // next_id .. streams_rejected
    meta.bytes(policy.data().data(), policy.size());
    core::ckpt::Writer& finished = builder.section(serve::kSectionFinished);
    finished.u64(1);  // one result
    finished.u64(0);  // its id
    finished.u8(0xEE);
    const std::vector<std::uint8_t> img =
        builder.finish(core::ckpt::fnv1a64(policy.data().data(), policy.size()));
    expect_rejected(img, StatusCode::kDataLoss, "bad finished status code");
  }
  // Restore demands an empty engine.
  {
    serve::StreamEngine busy({.threads = 1});
    ASSERT_TRUE(
        busy.submit({.scase = scase, .attack = AttackKind::kBias, .seed = 1})
            .is_ok());
    const Status s = busy.restore(good);
    ASSERT_FALSE(s.is_ok());
    EXPECT_EQ(s.code(), StatusCode::kInvalidInput);
  }
  // The pristine image still restores after all that (no shared-state
  // contamination between attempts).
  {
    serve::StreamEngine fresh({.threads = 1});
    EXPECT_TRUE(fresh.restore(good).is_ok());
    EXPECT_TRUE(serve::describe_snapshot(good).is_ok());
  }
}

// restore is atomic: an image rejected at the very end of the walk (its
// fingerprint) leaves the engine exactly as it was — empty, with a fresh
// engine's checkpoint bytes — and the same engine then takes the good image
// and finishes every stream as the uninterrupted run did.
TEST(EngineCheckpoint, RejectedRestoreLeavesEngineUntouched) {
  serve::StreamEngine reference({.threads = 2, .max_streams = 32});
  const std::vector<serve::StreamId> ids = submit_matrix(reference);
  reference.run_to_completion();

  serve::StreamEngine interrupted({.threads = 2, .max_streams = 32});
  ASSERT_EQ(submit_matrix(interrupted), ids);
  for (int k = 0; k < 20; ++k) interrupted.step_all();
  const std::vector<std::uint8_t> good = interrupted.checkpoint().value();
  std::vector<std::uint8_t> doctored = good;
  doctored[16] ^= 0xFF;
  fix_header_crc(doctored);

  const std::vector<std::uint8_t> empty_image =
      serve::StreamEngine({.threads = 2}).checkpoint().value();
  serve::StreamEngine engine({.threads = 2});
  const Status rejected = engine.restore(doctored);
  EXPECT_EQ(rejected.code(), StatusCode::kDataLoss);
  EXPECT_EQ(rejected.message(), "snapshot fingerprint mismatch");
  const serve::EngineSnapshot counters = engine.snapshot();
  EXPECT_EQ(counters.running, 0u);
  EXPECT_EQ(counters.queued, 0u);
  EXPECT_EQ(counters.finished, 0u);
  EXPECT_EQ(counters.streams_admitted, 0u);
  EXPECT_EQ(engine.checkpoint().value(), empty_image);

  const Status restored = engine.restore(good);
  ASSERT_TRUE(restored.is_ok()) << restored.message();
  engine.run_to_completion();
  for (serve::StreamId id : ids) {
    Result<serve::StreamResult> got = engine.drain(id);
    Result<serve::StreamResult> want = reference.drain(id);
    ASSERT_TRUE(got.is_ok() && want.is_ok()) << "stream " << id;
    expect_results_equal(got.value(), want.value(), "stream " + std::to_string(id));
  }
}

// describe_snapshot: the tooling view reports structure without touching any
// pipeline, and agrees with the engine that wrote the image.
TEST(EngineCheckpoint, DescribeSnapshotSummarizes) {
  serve::StreamEngine engine({.threads = 2, .max_streams = 4, .queue_capacity = 64});
  const SimulatorCase scase = simulator_case("vehicle_turning");
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {  // 4 running + 2 queued
    ASSERT_TRUE(
        engine.submit({.scase = scase, .attack = kAttacks[seed % 4], .seed = seed})
            .is_ok());
  }
  for (int k = 0; k < 12; ++k) engine.step_all();
  const std::vector<std::uint8_t> img = engine.checkpoint().value();

  Result<SnapshotInfo> info = describe_snapshot(img);
  ASSERT_TRUE(info.is_ok()) << info.status().message();
  EXPECT_EQ(info.value().version, core::ckpt::kFormatVersion);
  EXPECT_EQ(info.value().bytes, img.size());
  EXPECT_EQ(info.value().running.size(), 4u);
  EXPECT_EQ(info.value().pending.size(), 2u);
  EXPECT_EQ(info.value().finished, 0u);
  EXPECT_EQ(info.value().max_streams, 4u);
  EXPECT_EQ(info.value().queue_capacity, 64u);
  EXPECT_EQ(info.value().streams_admitted, 4u);
  for (const SnapshotStreamInfo& s : info.value().running) {
    EXPECT_EQ(s.case_key, "vehicle_turning");
    EXPECT_EQ(s.steps_done, 12u);
    EXPECT_EQ(s.steps_total, scase.steps);
  }
  for (const SnapshotStreamInfo& s : info.value().pending) {
    EXPECT_EQ(s.steps_done, 0u);
  }

  // Corruption surfaces through describe_snapshot with the same typing.
  std::vector<std::uint8_t> bad = img;
  bad[bad.size() - 1] ^= 0x01;
  EXPECT_FALSE(describe_snapshot(bad).is_ok());
}

// The image bytes of a fixed three-stream run, pinned as a literal: every
// round-trip test above compares two images of the same build, so only a
// pin catches a change that moves encoder and decoder together.
TEST(EngineCheckpoint, ImageBytesPinnedForFixedRun) {
  serve::StreamEngine engine({.threads = 1});
  const AttackKind attacks[] = {AttackKind::kBias, AttackKind::kReplay,
                                AttackKind::kDelay};
  const char* const plants[] = {"aircraft_pitch", "series_rlc", "dc_motor"};
  for (std::uint64_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(engine
                    .submit({.scase = simulator_case(plants[i]),
                             .attack = attacks[i],
                             .seed = i + 1})
                    .is_ok());
  }
  for (int k = 0; k < 30; ++k) engine.step_all();
  const Result<std::vector<std::uint8_t>> image = engine.checkpoint();
  ASSERT_TRUE(image.is_ok()) << image.status().message();
  EXPECT_EQ(image.value().size(), 35088u);
  EXPECT_EQ(core::ckpt::fnv1a64(image.value().data(), image.value().size()),
            0x5b2ec1831d551e54ULL);
}

}  // namespace
