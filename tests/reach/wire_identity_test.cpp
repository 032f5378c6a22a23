// Wire identities pinned as literals: the spec fingerprint of every seed
// plant's box and table spec, and the FNV-1a-64 of one encoded deadline
// table per table-capable plant.  Fingerprints key the serving engine's
// per-family backend sharing and are stamped into table images and
// snapshots, so a change to the hashed bytes — a field added, dropped or
// reordered — must show up here as a declared format change, not slip
// through the same-commit round-trip tests.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/ckpt.hpp"
#include "core/config.hpp"
#include "reach/backend.hpp"
#include "reach/table.hpp"

namespace awd::reach {
namespace {

struct Pinned {
  const char* plant;
  std::uint64_t box_fingerprint;
  std::uint64_t table_fingerprint;
  std::uint64_t table_image_fnv;  ///< 0 = grid over the table cell cap
  std::size_t table_image_bytes;
};

constexpr Pinned kPinned[] = {
    {"aircraft_pitch", 0xa662eeea6db55cb0ULL, 0xa941920df44dca51ULL,
     0xd969bcb1c74cf7f4ULL, 1201},
    {"vehicle_turning", 0x1da94f4e6afaee0aULL, 0x52bd2a08a21cf96dULL,
     0x2f325612e5f27891ULL, 145},
    {"series_rlc", 0xb30dddcd3f05cedcULL, 0xa50db96d073e6598ULL,
     0xa0c0e5513dfa8fe0ULL, 281},
    {"dc_motor", 0xc154affbfdd13d83ULL, 0x7c65c71fec3bcb04ULL,
     0x6b4022d309c3ec89ULL, 1201},
    {"quadrotor", 0x92da78061c26cfe9ULL, 0xe7ef39e434736a1dULL, 0, 0},
};

/// The plant's backend spec of `kind`, on the same grid rule the
/// differential test uses (8 cells per dim up to 3 dims, else 4).
BackendSpec pinned_spec(const std::string& plant, BackendKind kind) {
  core::SimulatorCase scase = core::simulator_case(plant);
  scase.reach_backend = kind;
  scase.reach_table_cells = scase.model.state_dim() <= 3 ? 8 : 4;
  return core::make_backend_spec(scase, /*init_radius=*/0.0, /*budget_steps=*/0);
}

TEST(WireIdentity, SpecFingerprintsArePinned) {
  ASSERT_EQ(core::table1_cases().size(), std::size(kPinned));
  for (const Pinned& p : kPinned) {
    EXPECT_EQ(spec_fingerprint(pinned_spec(p.plant, BackendKind::kBox)),
              p.box_fingerprint)
        << p.plant << " box";
    EXPECT_EQ(spec_fingerprint(pinned_spec(p.plant, BackendKind::kTable)),
              p.table_fingerprint)
        << p.plant << " table";
  }
}

TEST(WireIdentity, EncodedTablesArePinned) {
  for (const Pinned& p : kPinned) {
    if (p.table_image_fnv == 0) continue;
    core::Result<DeadlineTable> table =
        build_table(pinned_spec(p.plant, BackendKind::kTable));
    ASSERT_TRUE(table.is_ok()) << p.plant << ": " << table.status().message();
    const std::vector<std::uint8_t> image = encode_table(table.value());
    EXPECT_EQ(image.size(), p.table_image_bytes) << p.plant;
    EXPECT_EQ(core::ckpt::fnv1a64(image.data(), image.size()), p.table_image_fnv)
        << p.plant;
  }
}

}  // namespace
}  // namespace awd::reach
