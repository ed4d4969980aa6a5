#pragma once

#include <sys/types.h>

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/serialize.h"

namespace imap::proc {

/// DAG worker process count requested via the IMAP_PROCS environment
/// variable (>= 1; unset/invalid falls back to 1, every node inline).
int configured_procs();

/// One bidirectional pipe-pair endpoint of a coordinator <-> worker link.
///
/// Every cross-process message is a complete Archive image (so magic, format
/// version and CRC-32 come for free) framed by a little-endian u64 byte
/// length. A frame is either delivered whole and CRC-verified or rejected
/// with CheckError — a torn or interleaved write can never be half-read.
/// This is the only sanctioned way to move bytes between fabric processes;
/// the imap_check `ipc-framing` rule rejects raw struct writes to fds.
class Channel {
 public:
  Channel() = default;
  /// Takes ownership of both descriptors (either may be -1 for one-way use).
  Channel(int read_fd, int write_fd);
  ~Channel();

  Channel(Channel&& other) noexcept;
  Channel& operator=(Channel&& other) noexcept;
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  bool valid() const { return rfd_ >= 0 || wfd_ >= 0; }
  int read_fd() const { return rfd_; }

  /// Send one framed archive. Returns false when the peer is gone (EPIPE /
  /// closed pipe); throws CheckError on any other I/O failure.
  bool send(const ArchiveWriter& msg) const;

  /// Receive one framed archive. Returns false on clean end-of-stream
  /// (peer closed or exited before the next frame header); throws
  /// CheckError on a truncated frame or a corrupt archive payload.
  bool recv(ArchiveReader& out) const;

  void close_read();
  void close_write();
  void close_both();

 private:
  int rfd_ = -1;
  int wfd_ = -1;
};

/// A forked worker process executing `body(channel)`.
///
/// The child runs the body with parallel helpers forced serial (the parent's
/// pool threads do not survive fork) and with every *other* registered
/// channel descriptor closed, so EOF-based shutdown of sibling workers is
/// never defeated by an inherited duplicate of their pipe ends. The body's
/// normal return maps to exit code 0; an escaped exception prints to stderr
/// and exits 1. The child always leaves via _exit, never via exit(), so it
/// cannot replay the parent's atexit handlers or flush its stdio buffers.
class WorkerProcess {
 public:
  using Body = std::function<void(Channel&)>;

  WorkerProcess() = default;
  ~WorkerProcess();

  WorkerProcess(WorkerProcess&& other) noexcept;
  WorkerProcess& operator=(WorkerProcess&& other) noexcept;
  WorkerProcess(const WorkerProcess&) = delete;
  WorkerProcess& operator=(const WorkerProcess&) = delete;

  /// Fork a child running `body` over the worker half of a fresh pipe pair.
  static WorkerProcess spawn(const Body& body);

  bool valid() const { return pid_ > 0; }
  pid_t pid() const { return pid_; }
  Channel& channel() { return ch_; }
  const Channel& channel() const { return ch_; }

  /// Non-blocking liveness probe (false once the child has been reaped).
  bool running();

  /// Close our write end (the child's recv() returns false and it exits),
  /// then reap. Returns the exit code, or -signal for a killed child.
  int join();

  /// SIGKILL the child and reap it — crash drills and hard shutdown.
  void terminate();

 private:
  void reap_blocking();

  pid_t pid_ = -1;
  int status_ = 0;
  bool reaped_ = false;
  Channel ch_;
};

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
/// longer exists (crashed worker) is stolen. Guards the zoo checkpoint and
/// result-cache writers so concurrent fabric processes never duplicate a
/// training run or observe a torn cache entry.
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
