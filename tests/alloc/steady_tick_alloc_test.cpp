// Steady serving ticks allocate nothing for forensic dumps (DESIGN.md §15):
// once every stream holds a dump of a full flight-recorder ring, a tick
// that takes dumps makes exactly as many heap allocations as the same
// engine with recording (and so dumping) turned off.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <utility>
#include <vector>

#include "core/config.hpp"
#include "serve/forensics.hpp"
#include "serve/stream_engine.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace awd {
namespace {

using serve::StreamEngine;
using serve::StreamId;

constexpr std::size_t kDepth = 256;           ///< the serving default
constexpr std::size_t kStreamSteps = 100000;  ///< outlives the test
constexpr int kCountedTicks = 200;

/// 64 streams of each of four Table-1 plants, each under an attack that
/// keeps its alarm rising (and so dumping) for the whole run and that reads
/// no measurement history (delay and replay append one per step).
std::vector<serve::StreamSpec> attacked_fleet() {
  const std::pair<const char*, core::AttackKind> families[] = {
      {"aircraft_pitch", core::AttackKind::kStealthyRamp},
      {"vehicle_turning", core::AttackKind::kIntermittentBias},
      {"series_rlc", core::AttackKind::kBias},
      {"dc_motor", core::AttackKind::kIntermittentBias},
  };
  std::vector<serve::StreamSpec> fleet;
  for (const auto& [plant, attack] : families) {
    for (std::uint64_t k = 0; k < 64; ++k) {
      serve::StreamSpec spec;
      spec.scase = core::simulator_case(plant);
      spec.scase.steps = kStreamSteps;
      spec.scase.attack_start = 20;
      spec.scase.attack_duration = kStreamSteps - 20;
      spec.attack = attack;
      spec.seed = 1000 + k;
      fleet.push_back(std::move(spec));
    }
  }
  return fleet;
}

/// Every stream holds an automatic dump of a full recorder ring.
bool dumps_full(const StreamEngine& engine, const std::vector<StreamId>& ids) {
  for (const StreamId id : ids) {
    core::Result<std::vector<std::uint8_t>> image = engine.last_dump(id);
    if (!image.is_ok()) return false;
    core::Result<serve::ForensicsDump> dump = serve::decode_dump(image.value());
    if (!dump.is_ok() || dump.value().frames.size() != kDepth) return false;
  }
  return true;
}

struct Counted {
  std::uint64_t allocations = 0;
  std::uint64_t dumps = 0;
};

/// Warm `ticks` ticks (or, when `ticks` is 0, until every stream holds a
/// full-ring dump), then count allocations over kCountedTicks ticks.
Counted run(std::size_t threads, std::size_t depth, int& ticks) {
  StreamEngine engine({.threads = threads, .flight_recorder_depth = depth});
  std::vector<StreamId> ids;
  for (serve::StreamSpec& spec : attacked_fleet()) {
    core::Result<StreamId> id = engine.submit(std::move(spec));
    EXPECT_TRUE(id.is_ok()) << id.status().message();
    ids.push_back(id.value());
  }
  if (ticks == 0) {
    while (ticks < 4000) {
      engine.step_all();
      ++ticks;
      if (ticks >= static_cast<int>(kDepth) && ticks % 16 == 0 && dumps_full(engine, ids)) {
        break;
      }
    }
    EXPECT_LT(ticks, 4000) << "some stream never dumped a full ring";
  } else {
    for (int k = 0; k < ticks; ++k) engine.step_all();
  }
  Counted c;
  const std::uint64_t dumps0 = engine.introspect().dumps_written;
  const std::uint64_t before = g_allocations.load();
  for (int k = 0; k < kCountedTicks; ++k) {
    EXPECT_EQ(engine.step_all(), ids.size());
  }
  c.allocations = g_allocations.load() - before;
  c.dumps = engine.introspect().dumps_written - dumps0;
  return c;
}

TEST(SteadyTickAllocations, DumpsAddNoAllocationsPerTick) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    int ticks = 0;
    const Counted on = run(threads, kDepth, ticks);
    const Counted off = run(threads, 0, ticks);
    std::printf("threads %zu: warm-up %d ticks; %.2f allocations/tick with dumps "
                "(%.1f dumps/tick), %.2f with recording off\n",
                threads, ticks, static_cast<double>(on.allocations) / kCountedTicks,
                static_cast<double>(on.dumps) / kCountedTicks,
                static_cast<double>(off.allocations) / kCountedTicks);
    EXPECT_GE(on.dumps, static_cast<std::uint64_t>(kCountedTicks)) << "dumps must keep firing";
    EXPECT_EQ(off.dumps, 0u);
    EXPECT_EQ(on.allocations, off.allocations) << "threads " << threads;
  }
}

}  // namespace
}  // namespace awd
