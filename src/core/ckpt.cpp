#include "core/ckpt.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdio>
#include <cstring>
#include <limits>
#include <utility>

namespace awd::core::ckpt {

namespace {

/// Slice-by-8 tables for the reflected polynomial 0xEDB88320 (IEEE 802.3):
/// row 0 is the classic bytewise table, row k advances a byte through k
/// further zero bytes, so one round folds eight input bytes.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

constexpr CrcTables kCrcTables = make_crc_tables();

// Sanity limit on the count prefix of any length-prefixed field.  Snapshots
// of this library hold vectors of dimension <= ~12 and ring buffers of a few
// hundred entries; a count beyond this bound can only come from corruption,
// and rejecting it here keeps a flipped length byte from turning into a
// multi-gigabyte allocation.
constexpr std::uint64_t kMaxCount = 1ull << 28;

}  // namespace

std::uint32_t crc32(const std::uint8_t* data, std::size_t size) noexcept {
  const CrcTables& t = kCrcTables;
  std::uint32_t c = 0xFFFFFFFFu;
  for (; size >= 8; data += 8, size -= 8) {
    const std::uint32_t lo = c ^ load_le32(data);
    const std::uint32_t hi = load_le32(data + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^
        t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
        t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; size > 0; ++data, --size) c = t[0][(c ^ *data) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

std::uint64_t fnv1a64(const std::uint8_t* data, std::size_t size,
                      std::uint64_t seed) noexcept {
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < size; ++i) {
    h ^= data[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

// --- Writer ----------------------------------------------------------------

void Writer::str(std::string_view s) {
  u64(s.size());
  bytes(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
}

namespace {

/// Doubles as consecutive raw bit patterns, appended as one block.
void f64_block(Writer& w, const std::vector<double>& xs) {
  std::uint8_t* p = w.extend(8 * xs.size());
  for (const double x : xs) {
    store_le64(p, std::bit_cast<std::uint64_t>(x));
    p += 8;
  }
}

}  // namespace

void Writer::vec(const linalg::Vec& v) {
  u64(v.size());
  f64_block(*this, v.raw());
}

void Writer::mat(const linalg::Matrix& m) {
  u64(m.rows());
  u64(m.cols());
  f64_block(*this, m.raw());
}

void Writer::opt_u64(const std::optional<std::size_t>& v) {
  b(v.has_value());
  if (v.has_value()) u64(*v);
}

void Writer::opt_vec(const std::optional<linalg::Vec>& v) {
  b(v.has_value());
  if (v.has_value()) vec(*v);
}

void Writer::bytes(const std::uint8_t* data, std::size_t size) {
  buf_.insert(buf_.end(), data, data + size);
}

void Writer::block(const std::vector<std::uint8_t>& payload) {
  u64(payload.size());
  bytes(payload.data(), payload.size());
}

// --- Reader ----------------------------------------------------------------

bool Reader::take(std::size_t n, const std::uint8_t*& out) {
  if (failed_ || n > size_ - pos_) {
    failed_ = true;
    return false;
  }
  out = data_ + pos_;
  pos_ += n;
  return true;
}

bool Reader::u8(std::uint8_t& v) {
  const std::uint8_t* p = nullptr;
  if (!take(1, p)) return false;
  v = *p;
  return true;
}

bool Reader::b(bool& v) {
  std::uint8_t byte = 0;
  if (!u8(byte)) return false;
  if (byte > 1) {  // a bool must be 0/1; anything else is corruption
    failed_ = true;
    return false;
  }
  v = byte != 0;
  return true;
}

bool Reader::u32(std::uint32_t& v) {
  const std::uint8_t* p = nullptr;
  if (!take(4, p)) return false;
  v = load_le32(p);
  return true;
}

bool Reader::u64(std::uint64_t& v) {
  const std::uint8_t* p = nullptr;
  if (!take(8, p)) return false;
  v = load_le64(p);
  return true;
}

bool Reader::f64(double& v) {
  std::uint64_t bits = 0;
  if (!u64(bits)) return false;
  v = std::bit_cast<double>(bits);
  return true;
}

bool Reader::str(std::string& s) {
  std::uint64_t n = 0;
  if (!u64(n)) return false;
  if (n > kMaxCount || n > remaining()) {
    failed_ = true;
    return false;
  }
  const std::uint8_t* p = nullptr;
  if (!take(static_cast<std::size_t>(n), p)) return false;
  s.assign(reinterpret_cast<const char*>(p), static_cast<std::size_t>(n));
  return true;
}

bool Reader::vec(linalg::Vec& v) {
  std::uint64_t n = 0;
  if (!u64(n)) return false;
  if (n > kMaxCount || n * 8 > remaining()) {
    failed_ = true;
    return false;
  }
  v.assign(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < n; ++i) {
    if (!f64(v[i])) return false;
  }
  return true;
}

bool Reader::mat(linalg::Matrix& m) {
  std::uint64_t rows = 0;
  std::uint64_t cols = 0;
  if (!u64(rows) || !u64(cols)) return false;
  if (rows > kMaxCount || cols > kMaxCount || (cols != 0 && rows > kMaxCount / cols) ||
      rows * cols * 8 > remaining()) {
    failed_ = true;
    return false;
  }
  m = linalg::Matrix(static_cast<std::size_t>(rows), static_cast<std::size_t>(cols));
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      if (!f64(m(r, c))) return false;
    }
  }
  return true;
}

bool Reader::opt_u64(std::optional<std::size_t>& v) {
  bool has = false;
  if (!b(has)) return false;
  if (!has) {
    v.reset();
    return true;
  }
  std::uint64_t raw = 0;
  if (!u64(raw)) return false;
  v = static_cast<std::size_t>(raw);
  return true;
}

bool Reader::opt_vec(std::optional<linalg::Vec>& v) {
  bool has = false;
  if (!b(has)) return false;
  if (!has) {
    v.reset();
    return true;
  }
  linalg::Vec inner;
  if (!vec(inner)) return false;
  v = std::move(inner);
  return true;
}

bool Reader::block(Reader& out) {
  std::uint64_t n = 0;
  if (!u64(n)) return false;
  if (n > remaining()) {
    failed_ = true;
    return false;
  }
  const std::uint8_t* p = nullptr;
  if (!take(static_cast<std::size_t>(n), p)) return false;
  out = Reader(p, static_cast<std::size_t>(n));
  return true;
}

// --- SnapshotBuilder -------------------------------------------------------

SnapshotBuilder::SnapshotBuilder(std::size_t capacity, std::vector<std::uint8_t> buffer) {
  out_.buf_ = std::move(buffer);
  out_.buf_.clear();
  out_.buf_.reserve(std::max(capacity, kHeaderSize));
  // Section count, fingerprint and CRC are filled in by finish().
  out_.bytes(kMagic, sizeof(kMagic));
  out_.u32(kFormatVersion);
  out_.u32(0);  // section count
  out_.u64(0);  // fingerprint
  out_.u32(0);  // reserved
  out_.u32(0);  // header CRC over bytes [0, 28)
}

void SnapshotBuilder::close_section_() {
  if (open_ == 0) return;
  std::uint8_t* header = out_.buf_.data() + open_;
  const std::size_t payload = out_.size() - open_ - kSectionHeaderSize;
  store_le64(header + 8, payload);
  store_le32(header + 16, crc32(header + kSectionHeaderSize, payload));
  open_ = 0;
}

Writer& SnapshotBuilder::section(std::uint32_t id) {
  close_section_();
  open_ = out_.size();
  ++count_;
  out_.u32(id);
  out_.u32(0);  // reserved
  out_.u64(0);  // payload length
  out_.u32(0);  // payload CRC
  return out_;
}

std::vector<std::uint8_t> SnapshotBuilder::finish(std::uint64_t fingerprint) {
  close_section_();
  std::uint8_t* header = out_.buf_.data();
  store_le32(header + 12, count_);
  store_le64(header + 16, fingerprint);
  store_le32(header + kHeaderSize - 4, crc32(header, kHeaderSize - 4));
  return out_.take();
}

// --- SnapshotView ----------------------------------------------------------

core::Result<SnapshotView> SnapshotView::parse(const std::uint8_t* data,
                                               std::size_t size) {
  if (size < kHeaderSize) {
    return core::Status{core::StatusCode::kDataLoss, "snapshot too short for header"};
  }
  Reader header(data, kHeaderSize);
  const std::uint8_t* magic = nullptr;
  std::uint32_t version = 0;
  std::uint32_t section_count = 0;
  std::uint64_t fingerprint = 0;
  std::uint32_t reserved = 0;
  std::uint32_t stored_crc = 0;
  {
    // The header is fixed-size, so these reads cannot fail; the checks below
    // are about the *values*.
    std::uint8_t m[8];
    for (std::uint8_t& byte : m) (void)header.u8(byte);
    (void)header.u32(version);
    (void)header.u32(section_count);
    (void)header.u64(fingerprint);
    (void)header.u32(reserved);
    (void)header.u32(stored_crc);
    if (std::memcmp(m, kMagic, sizeof(kMagic)) != 0) {
      return core::Status{core::StatusCode::kDataLoss, "bad snapshot magic"};
    }
    magic = data;
    (void)magic;
  }
  if (crc32(data, kHeaderSize - 4) != stored_crc) {
    return core::Status{core::StatusCode::kDataLoss, "snapshot header CRC mismatch"};
  }
  if (version != kFormatVersion) {
    return core::Status{core::StatusCode::kUnimplemented,
                        "unsupported snapshot format version"};
  }
  if (reserved != 0) {
    return core::Status{core::StatusCode::kDataLoss,
                        "snapshot header reserved field not zero"};
  }

  SnapshotView view;
  view.version_ = version;
  view.fingerprint_ = fingerprint;
  view.sections_.reserve(section_count);

  std::size_t pos = kHeaderSize;
  for (std::uint32_t i = 0; i < section_count; ++i) {
    if (size - pos < kSectionHeaderSize) {
      return core::Status{core::StatusCode::kDataLoss,
                          "snapshot truncated inside a section header"};
    }
    Reader sh(data + pos, kSectionHeaderSize);
    std::uint32_t id = 0;
    std::uint32_t sec_reserved = 0;
    std::uint64_t length = 0;
    std::uint32_t payload_crc = 0;
    (void)sh.u32(id);
    (void)sh.u32(sec_reserved);
    (void)sh.u64(length);
    (void)sh.u32(payload_crc);
    pos += kSectionHeaderSize;
    if (sec_reserved != 0) {
      return core::Status{core::StatusCode::kDataLoss,
                          "snapshot section reserved field not zero"};
    }
    if (length > size - pos) {
      return core::Status{core::StatusCode::kDataLoss,
                          "snapshot section length exceeds file size"};
    }
    const std::uint8_t* payload = data + pos;
    if (crc32(payload, static_cast<std::size_t>(length)) != payload_crc) {
      return core::Status{core::StatusCode::kDataLoss, "snapshot section CRC mismatch"};
    }
    view.sections_.push_back(SectionView{id, payload, static_cast<std::size_t>(length)});
    pos += static_cast<std::size_t>(length);
  }
  if (pos != size) {
    return core::Status{core::StatusCode::kDataLoss, "snapshot has trailing bytes"};
  }
  return view;
}

const SectionView* SnapshotView::find(std::uint32_t id) const noexcept {
  for (const SectionView& s : sections_) {
    if (s.id == id) return &s;
  }
  return nullptr;
}

// --- File helpers ----------------------------------------------------------

core::Status write_file(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return core::Status{core::StatusCode::kUnavailable,
                        "cannot open snapshot file for writing"};
  }
  const std::size_t written =
      bytes.empty() ? 0 : std::fwrite(bytes.data(), 1, bytes.size(), f);
  const bool flushed = std::fflush(f) == 0;
  const bool closed = std::fclose(f) == 0;
  if (written != bytes.size() || !flushed || !closed) {
    std::remove(tmp.c_str());
    return core::Status{core::StatusCode::kUnavailable, "short write to snapshot file"};
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return core::Status{core::StatusCode::kUnavailable,
                        "cannot move snapshot file into place"};
  }
  return core::Status::ok();
}

core::Result<std::vector<std::uint8_t>> read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return core::Status{core::StatusCode::kUnavailable, "cannot open snapshot file"};
  }
  std::vector<std::uint8_t> bytes;
  std::uint8_t chunk[4096];
  std::size_t n = 0;
  while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
    bytes.insert(bytes.end(), chunk, chunk + n);
  }
  const bool bad = std::ferror(f) != 0;
  std::fclose(f);
  if (bad) {
    return core::Status{core::StatusCode::kUnavailable, "error reading snapshot file"};
  }
  return bytes;
}

}  // namespace awd::core::ckpt
