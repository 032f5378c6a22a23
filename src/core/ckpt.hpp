// ckpt.hpp — versioned binary snapshot codec (DESIGN.md §13).
//
// A fielded detector fleet drains, upgrades, rebalances and crash-recovers
// under live traffic; a single lost window or RNG step changes alarm times
// and silently forfeits the paper's recovery guarantee.  Every piece of
// per-stream detection state therefore serializes through this one codec:
//
//   * Writer / Reader — flat little-endian primitives (doubles as raw
//     IEEE-754 bit patterns, so ±Inf round-trips exactly) with
//     length-prefixed strings/vectors.  Every Reader access is
//     bounds-checked; a truncated or malformed payload latches an error
//     instead of reading past the buffer — corrupt snapshots must come back
//     as typed Status errors, never UB.
//   * SnapshotBuilder / SnapshotView — the file framing: a fixed header
//     (magic, format version, config fingerprint, CRC32) followed by typed
//     sections, each with its own length and CRC32.  parse() validates all
//     of it up front; a snapshot that parses exposes only in-bounds section
//     payloads.
//
// Who writes what lives with the component: detect::*, sim::*, fault::*,
// core::DetectionSystem and core::StreamingMetrics each carry
// serialize/deserialize hooks; serve::StreamEngine composes them into its
// checkpoint()/restore() sections.  This header knows nothing about them —
// it is the byte layer only.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/status.hpp"
#include "linalg/matrix.hpp"
#include "linalg/vec.hpp"

namespace awd::core::ckpt {

/// File magic: "AWDCKPT1".
inline constexpr std::uint8_t kMagic[8] = {'A', 'W', 'D', 'C', 'K', 'P', 'T', '1'};

/// Current snapshot format version.  Bump on any layout change; readers
/// reject other versions with kUnimplemented (see DESIGN.md §13 for the
/// compatibility policy).  v2: SimulatorCase gained the reach-backend
/// selection fields (reach_backend / reach_table_cells / reach_table_domain).
inline constexpr std::uint32_t kFormatVersion = 2;

/// Fixed header size in bytes (magic, version, section count, fingerprint,
/// reserved, CRC32 over everything before the CRC).
inline constexpr std::size_t kHeaderSize = 32;

/// Per-section header size (id, reserved, payload length, payload CRC32).
inline constexpr std::size_t kSectionHeaderSize = 20;

/// CRC-32 (IEEE 802.3 polynomial, reflected) of a byte range.  Slice-by-8:
/// eight bytes per table round, the same value as the bytewise algorithm.
[[nodiscard]] std::uint32_t crc32(const std::uint8_t* data, std::size_t size) noexcept;

/// FNV-1a 64-bit hash — the config-fingerprint primitive.  Chained: pass the
/// previous hash as `seed` to fold successive ranges into one fingerprint.
inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
[[nodiscard]] std::uint64_t fnv1a64(const std::uint8_t* data, std::size_t size,
                                    std::uint64_t seed = kFnvOffset) noexcept;

/// Store `v` little-endian at `p` (byte stores; no alignment needed).
inline void store_le32(std::uint8_t* p, std::uint32_t v) noexcept {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}
inline void store_le64(std::uint8_t* p, std::uint64_t v) noexcept {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}
/// Load a little-endian value from `p` (byte loads; no alignment needed).
inline std::uint32_t load_le32(const std::uint8_t* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) | static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 | static_cast<std::uint32_t>(p[3]) << 24;
}
inline std::uint64_t load_le64(const std::uint8_t* p) noexcept {
  return static_cast<std::uint64_t>(load_le32(p)) |
         static_cast<std::uint64_t>(load_le32(p + 4)) << 32;
}

/// Append-only little-endian encoder.  Multi-byte values go in as one
/// block each; extend() hands out a block for callers that lay out several
/// fields at once.
class Writer {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void b(bool v) { u8(v ? 1 : 0); }
  void u32(std::uint32_t v) { store_le32(extend(4), v); }
  void u64(std::uint64_t v) { store_le64(extend(8), v); }
  /// Double as its raw IEEE-754 bit pattern (±Inf and NaN round-trip).
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  /// Append `n` bytes and return where they start; the caller fills all of
  /// them before the next append (which may move the buffer).
  [[nodiscard]] std::uint8_t* extend(std::size_t n) {
    const std::size_t at = buf_.size();
    buf_.resize(at + n);
    return buf_.data() + at;
  }
  void str(std::string_view s);
  void vec(const linalg::Vec& v);
  void mat(const linalg::Matrix& m);
  void opt_u64(const std::optional<std::size_t>& v);
  void opt_vec(const std::optional<linalg::Vec>& v);
  void bytes(const std::uint8_t* data, std::size_t size);
  /// Length-prefixed nested byte block (framing for sub-objects whose bytes
  /// are hashed or skipped as a unit, e.g. per-stream spec blocks).
  void block(const std::vector<std::uint8_t>& payload);

  [[nodiscard]] const std::vector<std::uint8_t>& data() const noexcept { return buf_; }
  [[nodiscard]] std::size_t size() const noexcept { return buf_.size(); }
  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  friend class SnapshotBuilder;  // reserves the image, patches lengths and CRCs
  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked little-endian decoder over a borrowed byte range.  Every
/// accessor returns false (and latches the error) on truncation or a
/// malformed length; once failed, all further reads fail.  Callers check
/// ok()/status() at object boundaries.
class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t size) : data_(data), size_(size) {}

  [[nodiscard]] bool u8(std::uint8_t& v);
  [[nodiscard]] bool b(bool& v);
  [[nodiscard]] bool u32(std::uint32_t& v);
  [[nodiscard]] bool u64(std::uint64_t& v);
  [[nodiscard]] bool f64(double& v);
  [[nodiscard]] bool str(std::string& s);
  [[nodiscard]] bool vec(linalg::Vec& v);
  [[nodiscard]] bool mat(linalg::Matrix& m);
  [[nodiscard]] bool opt_u64(std::optional<std::size_t>& v);
  [[nodiscard]] bool opt_vec(std::optional<linalg::Vec>& v);
  /// Nested byte block: on success `out` borrows the block's bytes.
  [[nodiscard]] bool block(Reader& out);
  /// Borrow the next `n` bytes as one bounds-checked block (the reading
  /// mirror of Writer::extend) for callers that decode several fields at
  /// once.
  [[nodiscard]] bool take(std::size_t n, const std::uint8_t*& out);

  /// Mark the payload malformed (semantic violation found by a caller,
  /// e.g. an out-of-range enum value); all further reads fail.
  void fail() noexcept { failed_ = true; }

  [[nodiscard]] bool ok() const noexcept { return !failed_; }
  [[nodiscard]] bool at_end() const noexcept { return pos_ == size_; }
  [[nodiscard]] std::size_t remaining() const noexcept { return size_ - pos_; }

  /// kDataLoss once any read failed; OK otherwise.
  [[nodiscard]] core::Status status() const noexcept {
    return failed_ ? core::Status{core::StatusCode::kDataLoss,
                                  "snapshot payload truncated or malformed"}
                   : core::Status::ok();
  }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  bool failed_ = false;
};

/// One parsed section: a typed view into the snapshot's bytes.
struct SectionView {
  std::uint32_t id = 0;
  const std::uint8_t* data = nullptr;
  std::size_t size = 0;

  [[nodiscard]] Reader reader() const { return Reader(data, size); }
};

/// Assembles a snapshot in one buffer: the header, then each section's
/// header and payload in the order written.  finish() fills in the section
/// count, the fingerprint, the lengths and the CRCs in place.
class SnapshotBuilder {
 public:
  /// `capacity` reserves the image up front; pass the exact size when it is
  /// known (kHeaderSize + the sum of kSectionHeaderSize + payload bytes).
  /// The image is built in `buffer`'s storage: its bytes are discarded and
  /// its capacity kept, so a caller that hands the same buffer back for
  /// every image allocates only when an image outgrows it.
  explicit SnapshotBuilder(std::size_t capacity = 0, std::vector<std::uint8_t> buffer = {});

  /// End the open section (if any) and start a new one; write its payload
  /// through the returned Writer before the next section() or finish().
  Writer& section(std::uint32_t id);

  /// Produce the final byte image (in the buffer the builder was given) with
  /// `fingerprint` in the header.  The builder is spent afterwards.
  [[nodiscard]] std::vector<std::uint8_t> finish(std::uint64_t fingerprint);

 private:
  void close_section_();

  Writer out_;
  std::size_t open_ = 0;  ///< offset of the open section's header; 0 = none
  std::uint32_t count_ = 0;
};

/// Validated view over a snapshot byte image.  parse() checks magic, format
/// version, header CRC, every section's bounds and CRC, and that no trailing
/// bytes follow the last section — each failure mode comes back as its own
/// typed Status (kDataLoss for corruption, kUnimplemented for a version
/// mismatch).  The view borrows the caller's buffer.
class SnapshotView {
 public:
  [[nodiscard]] static core::Result<SnapshotView> parse(const std::uint8_t* data,
                                                        std::size_t size);
  [[nodiscard]] static core::Result<SnapshotView> parse(
      const std::vector<std::uint8_t>& bytes) {
    return parse(bytes.data(), bytes.size());
  }

  [[nodiscard]] std::uint32_t version() const noexcept { return version_; }
  [[nodiscard]] std::uint64_t fingerprint() const noexcept { return fingerprint_; }
  [[nodiscard]] const std::vector<SectionView>& sections() const noexcept {
    return sections_;
  }

  /// First section with the given id, or nullptr.
  [[nodiscard]] const SectionView* find(std::uint32_t id) const noexcept;

 private:
  std::uint32_t version_ = 0;
  std::uint64_t fingerprint_ = 0;
  std::vector<SectionView> sections_;
};

/// Write a snapshot image to a file (atomic enough for the chaos suite:
/// write to `path + ".tmp"`, then rename over `path`, so a crash mid-write
/// never leaves a half snapshot under the recovery path).
[[nodiscard]] core::Status write_file(const std::string& path,
                                      const std::vector<std::uint8_t>& bytes);

/// Read a whole snapshot file back (kUnavailable when unreadable).
[[nodiscard]] core::Result<std::vector<std::uint8_t>> read_file(const std::string& path);

}  // namespace awd::core::ckpt
