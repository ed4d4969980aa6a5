#include "common/serialize.h"

#include <unistd.h>

#include <array>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "common/check.h"

namespace imap {

namespace {

constexpr std::uint8_t kMagic[4] = {'I', 'M', 'A', 'P'};

const std::array<std::uint32_t, 256>& crc_table() {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k)
        c = (c & 1u) ? (0xedb88320u ^ (c >> 1)) : (c >> 1);
      t[i] = c;
    }
    return t;
  }();
  return table;
}

// resize+memcpy rather than range-insert: identical effect, but GCC's
// -Wstringop-overflow misjudges grow-from-empty vector::insert at -O3.
void append_bytes(std::vector<std::uint8_t>& buf, const void* p,
                  std::size_t n) {
  const std::size_t off = buf.size();
  buf.resize(off + n);
  if (n != 0) std::memcpy(buf.data() + off, p, n);
}

template <class T>
void append_pod(std::vector<std::uint8_t>& buf, T v) {
  append_bytes(buf, &v, sizeof(T));
}

void append_u64(std::vector<std::uint8_t>& buf, std::uint64_t v) {
  append_pod(buf, v);
}

/// Write `bytes` to a pid-unique `<path>.tmp.<pid>`, then atomically rename
/// onto `path`, so a crash mid-write can only ever leave the old file (or a
/// stray tmp), never a torn checkpoint. The pid suffix keeps concurrent
/// processes racing on the same artifact from scribbling over each
/// other's temporary — last rename wins with a complete file either way.
bool write_file_atomic(const std::string& path,
                       const std::vector<std::uint8_t>& bytes) {
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  {
    std::ofstream f(tmp, std::ios::binary | std::ios::trunc);
    if (!f) return false;
    f.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
    if (!f) return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

bool read_file_bytes(const std::string& path, std::vector<std::uint8_t>& out) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return false;
  out.assign((std::istreambuf_iterator<char>(f)),
             std::istreambuf_iterator<char>());
  return true;
}

}  // namespace

std::uint32_t crc32(const std::uint8_t* data, std::size_t n,
                    std::uint32_t seed) {
  const auto& table = crc_table();
  std::uint32_t c = seed ^ 0xffffffffu;
  for (std::size_t i = 0; i < n; ++i)
    c = table[(c ^ data[i]) & 0xffu] ^ (c >> 8);
  return c ^ 0xffffffffu;
}

void BinaryWriter::write_u64(std::uint64_t v) { append_pod(buf_, v); }
void BinaryWriter::write_i64(std::int64_t v) { append_pod(buf_, v); }
void BinaryWriter::write_f64(double v) { append_pod(buf_, v); }

void BinaryWriter::write_bool(bool v) {
  buf_.push_back(v ? std::uint8_t{1} : std::uint8_t{0});
}

void BinaryWriter::write_string(const std::string& s) {
  write_u64(s.size());
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void BinaryWriter::write_vec(const std::vector<double>& v) {
  write_u64(v.size());
  const auto* p = reinterpret_cast<const std::uint8_t*>(v.data());
  buf_.insert(buf_.end(), p, p + v.size() * sizeof(double));
}

bool BinaryWriter::save(const std::string& path) const {
  ArchiveWriter archive;
  archive.section("data") = *this;
  return archive.save(path);
}

BinaryReader::BinaryReader(std::vector<std::uint8_t> data)
    : buf_(std::move(data)) {}

bool BinaryReader::load(const std::string& path, BinaryReader& out) {
  ArchiveReader archive;
  if (!ArchiveReader::load(path, archive)) return false;
  out = archive.section("data");
  return true;
}

void BinaryReader::need(std::size_t n) const {
  // pos_ ≤ buf_.size() always; compare without the sum, which a corrupt
  // length near 2^64 would wrap.
  IMAP_CHECK_MSG(n <= buf_.size() - pos_, "checkpoint truncated");
}

std::uint64_t BinaryReader::read_u64() {
  need(sizeof(std::uint64_t));
  std::uint64_t v = 0;
  std::memcpy(&v, buf_.data() + pos_, sizeof(v));
  pos_ += sizeof(v);
  return v;
}

std::int64_t BinaryReader::read_i64() {
  return static_cast<std::int64_t>(read_u64());
}

double BinaryReader::read_f64() {
  need(sizeof(double));
  double v = 0;
  std::memcpy(&v, buf_.data() + pos_, sizeof(v));
  pos_ += sizeof(v);
  return v;
}

bool BinaryReader::read_bool() {
  need(1);
  const std::uint8_t v = buf_[pos_++];
  IMAP_CHECK_MSG(v <= 1, "corrupt bool in checkpoint");
  return v != 0;
}

std::string BinaryReader::read_string() {
  const auto n = read_u64();
  need(n);
  std::string s(reinterpret_cast<const char*>(buf_.data() + pos_), n);
  pos_ += n;
  return s;
}

std::vector<double> BinaryReader::read_vec() {
  const auto n = read_u64();
  // Bound the count before it multiplies: 2^61 doubles wrap to 0 bytes.
  IMAP_CHECK_MSG(n <= (buf_.size() - pos_) / sizeof(double),
                 "checkpoint truncated");
  std::vector<double> v(n);
  if (n != 0) std::memcpy(v.data(), buf_.data() + pos_, n * sizeof(double));
  pos_ += n * sizeof(double);
  return v;
}

BinaryWriter& ArchiveWriter::section(const std::string& name) {
  for (auto& [sec_name, writer] : sections_)
    if (sec_name == name) return writer;
  sections_.emplace_back(name, BinaryWriter{});
  return sections_.back().second;
}

std::vector<std::uint8_t> ArchiveWriter::bytes() const {
  std::vector<std::uint8_t> out;
  // Exact-size reserve: one allocation for the whole archive (and GCC's
  // -Wstringop-overflow can otherwise misjudge the grow-from-empty insert).
  std::size_t total = sizeof(kMagic) + 2 * sizeof(std::uint64_t) +
                      sizeof(std::uint32_t);
  for (const auto& [name, writer] : sections_)
    total += 2 * sizeof(std::uint64_t) + name.size() + writer.buffer().size();
  out.reserve(total);
  append_bytes(out, kMagic, sizeof(kMagic));
  append_u64(out, kFormatVersion);
  append_u64(out, sections_.size());
  for (const auto& [name, writer] : sections_) {
    append_u64(out, name.size());
    append_bytes(out, name.data(), name.size());
    const auto& payload = writer.buffer();
    append_u64(out, payload.size());
    append_bytes(out, payload.data(), payload.size());
  }
  append_pod(out, crc32(out.data(), out.size()));
  return out;
}

bool ArchiveWriter::save(const std::string& path) const {
  return write_file_atomic(path, bytes());
}

bool ArchiveReader::load(const std::string& path, ArchiveReader& out) {
  std::vector<std::uint8_t> data;
  if (!read_file_bytes(path, data)) return false;
  out = parse(std::move(data), path);
  return true;
}

ArchiveReader ArchiveReader::parse(std::vector<std::uint8_t> data,
                                   const std::string& what) {
  constexpr std::size_t kHeader = sizeof(kMagic) + 2 * sizeof(std::uint64_t);
  IMAP_CHECK_MSG(data.size() >= kHeader + sizeof(std::uint32_t),
                 "checkpoint file too short: " << what);
  IMAP_CHECK_MSG(std::memcmp(data.data(), kMagic, sizeof(kMagic)) == 0,
                 "bad checkpoint magic in " << what);

  // CRC trailer first: a torn / bit-flipped file must fail closed before any
  // structural field is trusted.
  const std::size_t body = data.size() - sizeof(std::uint32_t);
  std::uint32_t stored = 0;
  std::memcpy(&stored, data.data() + body, sizeof(stored));
  IMAP_CHECK_MSG(crc32(data.data(), body) == stored,
                 "checkpoint CRC mismatch (torn or corrupt file): " << what);

  ArchiveReader out;
  std::memcpy(&out.version_, data.data() + sizeof(kMagic),
              sizeof(out.version_));
  IMAP_CHECK_MSG(out.version_ == kFormatVersion,
                 "unsupported checkpoint format version "
                     << out.version_ << " (expected " << kFormatVersion
                     << ") in " << what);

  std::uint64_t count = 0;
  std::memcpy(&count, data.data() + sizeof(kMagic) + sizeof(std::uint64_t),
              sizeof(count));
  std::size_t pos = kHeader;
  const auto take_u64 = [&](const char* field) {
    IMAP_CHECK_MSG(pos + sizeof(std::uint64_t) <= body,
                   "checkpoint truncated at " << field << ": " << what);
    std::uint64_t v = 0;
    std::memcpy(&v, data.data() + pos, sizeof(v));
    pos += sizeof(v);
    return v;
  };
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t name_len = take_u64("section name length");
    IMAP_CHECK_MSG(pos + name_len <= body,
                   "checkpoint truncated at section name: " << what);
    std::string name(reinterpret_cast<const char*>(data.data() + pos),
                     name_len);
    pos += name_len;
    const std::uint64_t payload_len = take_u64("section payload length");
    IMAP_CHECK_MSG(pos + payload_len <= body,
                   "checkpoint truncated at section payload: " << what);
    out.sections_.emplace_back(
        std::move(name),
        std::vector<std::uint8_t>(data.begin() + static_cast<long>(pos),
                                  data.begin() +
                                      static_cast<long>(pos + payload_len)));
    pos += payload_len;
  }
  IMAP_CHECK_MSG(pos == body,
                 "checkpoint has trailing bytes after sections: " << what);
  return out;
}

bool ArchiveReader::has(const std::string& name) const {
  for (const auto& [sec_name, payload] : sections_)
    if (sec_name == name) return true;
  return false;
}

BinaryReader ArchiveReader::section(const std::string& name) const {
  for (const auto& [sec_name, payload] : sections_)
    if (sec_name == name) return BinaryReader(payload);
  IMAP_CHECK_MSG(false, "checkpoint is missing section '" << name << "'");
  return BinaryReader{};
}

std::vector<std::string> ArchiveReader::section_names() const {
  std::vector<std::string> names;
  names.reserve(sections_.size());
  for (const auto& [sec_name, payload] : sections_)
    names.push_back(sec_name);
  return names;
}

}  // namespace imap
