#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace imap::proc {

/// Cheap identity signature of a file's current on-disk state: nanosecond
/// mtime plus byte size from one stat() call. Two equal signatures mean the
/// file was not rewritten in between (every artifact writer in this codebase
/// goes through tmp+rename, which always refreshes the mtime), so a cached
/// parse+CRC verification of the same path can be reused without re-reading
/// the bytes. Used to memoize warm zoo / result-cache lookups and to
/// revalidate TTL-expired serving-cache entries with a single stat.
struct FileSig {
  std::uint64_t mtime_ns = 0;
  std::uint64_t size = 0;
  std::uint64_t inode = 0;

  friend bool operator==(const FileSig& a, const FileSig& b) {
    return a.mtime_ns == b.mtime_ns && a.size == b.size && a.inode == b.inode;
  }
  friend bool operator!=(const FileSig& a, const FileSig& b) {
    return !(a == b);
  }
};

/// Signature of `path`, or nullopt when it does not exist (other stat
/// failures throw CheckError — a permission error is not a cache miss).
std::optional<FileSig> file_sig(const std::string& path);

/// Indices of `fds` that are readable or hung up; blocks until at least one
/// is (timeout_ms < 0 waits forever). Entries of -1 are skipped.
std::vector<std::size_t> poll_readable(const std::vector<int>& fds,
                                       int timeout_ms = -1);

/// Coarse cross-process mutex backed by an O_CREAT|O_EXCL lockfile holding
/// the owner pid. Acquisition blocks with backoff; a lockfile whose owner no
/// longer exists (a crashed run) is stolen. Guards the zoo checkpoint and
/// result-cache writers so concurrent invocations over one store never
/// duplicate a training run or observe a torn cache entry.
class FileLock {
 public:
  /// Blocks until the lock at `path` is held.
  explicit FileLock(std::string path);
  ~FileLock();

  FileLock(const FileLock&) = delete;
  FileLock& operator=(const FileLock&) = delete;

 private:
  std::string path_;
  bool held_ = false;
};

}  // namespace imap::proc
