// End-to-end tests of the `awd` operator binary: each spawns the built
// executable on temporary files and asserts the exit convention of
// tools/cli.hpp — 0 ok, 1 invalid or corrupt input or a failed check, 2
// usage, unknown name, malformed number or I/O error.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "awd.hpp"
#include "core/ckpt.hpp"

extern char** environ;

namespace awd {
namespace {

namespace fs = std::filesystem;

/// Run `awd <args...>` with stdout/stderr discarded; the exit code, or
/// 128 + signal when it died on one.
int awd_exit(std::vector<std::string> args) {
  args.insert(args.begin(), AWD_CLI_PATH);
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  posix_spawn_file_actions_t io;
  posix_spawn_file_actions_init(&io);
  posix_spawn_file_actions_addopen(&io, STDOUT_FILENO, "/dev/null", O_WRONLY, 0);
  posix_spawn_file_actions_addopen(&io, STDERR_FILENO, "/dev/null", O_WRONLY, 0);
  pid_t pid = 0;
  const int err = posix_spawn(&pid, argv[0], &io, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&io);
  if (err != 0) return -1;
  int status = 0;
  if (waitpid(pid, &status, 0) != pid) return -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
}

/// A per-test scratch directory, removed on scope exit.
struct TempDir {
  fs::path path = fs::temp_directory_path() /
                  ("awd_cli_" + std::string(::testing::UnitTest::GetInstance()
                                                ->current_test_info()
                                                ->name()) +
                   "_" + std::to_string(::getpid()));
  TempDir() { fs::create_directories(path); }
  ~TempDir() { fs::remove_all(path); }
  [[nodiscard]] std::string file(const char* name) const { return (path / name).string(); }
};

/// Admit two streams and step them 40 control periods; their ids.
std::vector<StreamId> step_small_engine(StreamEngine& engine) {
  std::vector<StreamId> ids;
  for (const char* key : {"series_rlc", "dc_motor"}) {
    StreamSpec spec;
    spec.scase = simulator_case(key);
    spec.attack = AttackKind::kBias;
    spec.seed = 7;
    Result<StreamId> id = engine.submit(spec);
    EXPECT_TRUE(id.is_ok()) << id.status().message();
    if (id.is_ok()) ids.push_back(id.value());
  }
  for (int k = 0; k < 40; ++k) engine.step_all();
  return ids;
}

TEST(Cli, MissingOrUnknownSubcommandIsUsage) {
  EXPECT_EQ(awd_exit({}), 2);
  EXPECT_EQ(awd_exit({"bogus"}), 2);
  EXPECT_EQ(awd_exit({"ckpt"}), 2);
  EXPECT_EQ(awd_exit({"ckpt", "inspect", "/nonexistent/x.ckpt", "--nope"}), 2);
  EXPECT_EQ(awd_exit({"diagnose"}), 0);
}

TEST(Cli, UnknownNamesExit2) {
  EXPECT_EQ(awd_exit({"diagnose", "bogus", "none"}), 2);
  EXPECT_EQ(awd_exit({"diagnose", "aircraft_pitch", "bogus"}), 2);
  EXPECT_EQ(awd_exit({"tune", "bogus"}), 2);
  const TempDir dir;
  EXPECT_EQ(awd_exit({"reach", "build", "bogus", dir.file("t.tbl")}), 2);
}

TEST(Cli, MalformedNumbersExit2) {
  const TempDir dir;
  const std::string table = dir.file("t.tbl");
  EXPECT_EQ(awd_exit({"reach", "build", "dc_motor", table, "--cells", "abc"}), 2);
  EXPECT_FALSE(fs::exists(table)) << "a malformed --cells still wrote a table";
  EXPECT_EQ(awd_exit({"reach", "build", "dc_motor", table, "--max-window=-3"}), 2);
  EXPECT_EQ(awd_exit({"reach", "build", "dc_motor", table, "--init-radius", "0.1x"}), 2);
  EXPECT_EQ(awd_exit({"tune", "dc_motor", "--trials", "x"}), 2);
  EXPECT_EQ(awd_exit({"tune", "dc_motor", "--target-far", ""}), 2);
  EXPECT_EQ(awd_exit({"diagnose", "aircraft_pitch", "bias", "1x"}), 2);
  EXPECT_EQ(awd_exit({"obs", dir.file("none"), "--top", "ten"}), 2);
}

TEST(Cli, CkptValidatesASnapshotAndRejectsAFlippedByte) {
  const TempDir dir;
  StreamEngine engine({.threads = 1, .flight_recorder_depth = 0});
  ASSERT_EQ(step_small_engine(engine).size(), 2u);
  Result<std::vector<std::uint8_t>> image = engine.checkpoint();
  ASSERT_TRUE(image.is_ok()) << image.status().message();
  const std::string good = dir.file("good.ckpt");
  ASSERT_TRUE(core::ckpt::write_file(good, image.value()).is_ok());
  EXPECT_EQ(awd_exit({"ckpt", "validate", good}), 0);
  EXPECT_EQ(awd_exit({"ckpt", "inspect", good, "--json"}), 0);

  std::vector<std::uint8_t> flipped = image.value();
  flipped[flipped.size() / 2] ^= 0x01;
  const std::string bad = dir.file("bad.ckpt");
  ASSERT_TRUE(core::ckpt::write_file(bad, flipped).is_ok());
  EXPECT_EQ(awd_exit({"ckpt", "validate", bad}), 1);
  EXPECT_EQ(awd_exit({"ckpt", "validate", dir.file("missing.ckpt")}), 2);
}

TEST(Cli, ReachTableChecksAgainstItsOwnCaseOnly) {
  const TempDir dir;
  const std::string table = dir.file("dc_motor.tbl");
  ASSERT_EQ(awd_exit({"reach", "build", "dc_motor", table}), 0);
  EXPECT_EQ(awd_exit({"reach", "info", table}), 0);
  EXPECT_EQ(awd_exit({"reach", "check", "dc_motor", table}), 0);
  EXPECT_EQ(awd_exit({"reach", "check", "series_rlc", table}), 1);
  // Two cells per dimension: the cell inflation leaves every deadline 0.
  const std::string coarse = dir.file("coarse.tbl");
  EXPECT_EQ(awd_exit({"reach", "build", "dc_motor", coarse, "--cells", "2"}), 1);
  EXPECT_FALSE(fs::exists(coarse)) << "an all-zero table was written";
}

TEST(Cli, ReachCheckRejectsAnAllZeroTable) {
  // Written through the library, since `awd reach build` refuses it: two
  // cells per dimension leave every dc_motor deadline 0.
  SimulatorCase scase = simulator_case("dc_motor");
  scase.reach_backend = BackendKind::kTable;
  scase.reach_table_cells = 2;
  const Result<DeadlineTable> table = build_table(make_backend_spec(scase, 0.0, 0));
  ASSERT_TRUE(table.is_ok()) << table.status().message();
  for (const std::uint16_t d : table.value().deadlines) ASSERT_EQ(d, 0u);
  const TempDir dir;
  const std::string coarse = dir.file("coarse.tbl");
  ASSERT_TRUE(core::ckpt::write_file(coarse, encode_table(table.value())).is_ok());
  EXPECT_EQ(awd_exit({"reach", "info", coarse}), 0);
  EXPECT_EQ(awd_exit({"reach", "check", "dc_motor", coarse, "--cells", "2"}), 1);
}

TEST(Cli, ForensicsReplaysADump) {
  const TempDir dir;
  StreamEngine engine({.threads = 1, .flight_recorder_depth = 32});
  const std::vector<StreamId> ids = step_small_engine(engine);
  ASSERT_EQ(ids.size(), 2u);
  Result<std::vector<std::uint8_t>> dump = engine.dump_stream(ids[0]);
  ASSERT_TRUE(dump.is_ok()) << dump.status().message();
  const std::string path = dir.file("stream.awdfr");
  ASSERT_TRUE(core::ckpt::write_file(path, dump.value()).is_ok());
  EXPECT_EQ(awd_exit({"forensics", "info", path, "--json"}), 0);
  EXPECT_EQ(awd_exit({"forensics", "frames", path, "--tail", "3"}), 0);
  EXPECT_EQ(awd_exit({"forensics", "replay", path}), 0);
}

}  // namespace
}  // namespace awd
