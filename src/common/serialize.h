#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace imap {

/// On-disk checkpoint format version. Bumping this invalidates every zoo /
/// result-cache artifact: `Zoo::path_for` and `ExperimentRunner::cache_key`
/// fold it into their names, and `ArchiveReader::load` rejects files written
/// under any other version with a CheckError (never a silent mis-read).
/// Bump it for a payload layout change and also for a change to trained
/// numerics (the same seed training to different weights), so cached
/// victims and results from the old numerics are retrained, not reused.
/// v3: the MLP hidden activation is kernel::tanh_rows, not std::tanh.
constexpr std::uint64_t kFormatVersion = 3;

/// CRC-32 (IEEE 802.3 polynomial, reflected) over `n` bytes, continuing from
/// `seed` (pass the previous return value to checksum in chunks).
std::uint32_t crc32(const std::uint8_t* data, std::size_t n,
                    std::uint32_t seed = 0);

/// Minimal binary value codec used for all checkpoint payloads.
///
/// Format: little-endian PODs, vectors length-prefixed with uint64, strings
/// likewise. A BinaryWriter only accumulates bytes; on-disk framing (magic,
/// version, sections, CRC trailer) is the Archive layer's job. `save` is a
/// convenience that wraps the buffer in a single-section archive.
class BinaryWriter {
 public:
  void write_u64(std::uint64_t v);
  void write_i64(std::int64_t v);
  void write_f64(double v);
  void write_bool(bool v);
  void write_string(const std::string& s);
  void write_vec(const std::vector<double>& v);

  const std::vector<std::uint8_t>& buffer() const { return buf_; }

  /// Write the accumulated buffer to `path` as a one-section archive
  /// (section name "data"). Crash-safe: writes `<path>.tmp`, then renames.
  /// Returns false on I/O failure.
  bool save(const std::string& path) const;

 private:
  std::vector<std::uint8_t> buf_;
};

class BinaryReader {
 public:
  BinaryReader() = default;
  explicit BinaryReader(std::vector<std::uint8_t> data);

  /// Load a file written by BinaryWriter::save: returns false on a missing
  /// file, throws CheckError on a corrupt / foreign / wrong-version one.
  static bool load(const std::string& path, BinaryReader& out);

  std::uint64_t read_u64();
  std::int64_t read_i64();
  double read_f64();
  bool read_bool();
  std::string read_string();
  std::vector<double> read_vec();

  bool exhausted() const { return pos_ == buf_.size(); }

 private:
  void need(std::size_t n) const;

  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;
};

/// Section-tagged, versioned checkpoint container.
///
/// File layout (all integers little-endian):
///
///   magic "IMAP" | u64 format version | u64 section count
///   repeated:  u64 name_len | name bytes | u64 payload_len | payload bytes
///   trailer:   u32 CRC-32 of every preceding byte
///
/// Readers look sections up by name, so adding a section is
/// backward-compatible at the container level (old readers skip unknown
/// names); any change to a section's *payload* layout must bump
/// kFormatVersion instead.
class ArchiveWriter {
 public:
  /// Writer for the named section; created empty on first use. Repeated
  /// calls with the same name append to the same section.
  BinaryWriter& section(const std::string& name);

  /// Serialize header + sections + CRC trailer into a byte buffer.
  std::vector<std::uint8_t> bytes() const;

  /// Crash-safe save: serialize to `<path>.tmp`, then atomically rename onto
  /// `path`. Returns false on I/O failure (never leaves a torn `path`).
  bool save(const std::string& path) const;

 private:
  std::vector<std::pair<std::string, BinaryWriter>> sections_;
};

class ArchiveReader {
 public:
  /// Load and verify an archive: returns false on a missing file, throws
  /// CheckError on bad magic, wrong format version, truncation, or a CRC
  /// mismatch (a torn write is rejected up front, never half-read).
  static bool load(const std::string& path, ArchiveReader& out);

  /// Parse an in-memory image (same checks as `load`; `what` names the
  /// source in error messages).
  static ArchiveReader parse(std::vector<std::uint8_t> data,
                             const std::string& what);

  bool has(const std::string& name) const;

  /// Reader positioned at the start of the named section's payload; throws
  /// CheckError if absent.
  BinaryReader section(const std::string& name) const;

  /// Section names in file order (unknown names are simply never asked for —
  /// that is the skip-unknown-section rule).
  std::vector<std::string> section_names() const;

  std::uint64_t version() const { return version_; }

 private:
  std::uint64_t version_ = 0;
  std::vector<std::pair<std::string, std::vector<std::uint8_t>>> sections_;
};

}  // namespace imap
