#include "common/proc.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/stat.h>
#include <time.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "common/check.h"

namespace imap::proc {

std::optional<FileSig> file_sig(const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) {
    if (errno == ENOENT || errno == ENOTDIR) return std::nullopt;
    IMAP_CHECK_MSG(false,
                   "stat(" << path << ") failed: " << std::strerror(errno));
  }
  FileSig sig;
  sig.mtime_ns = static_cast<std::uint64_t>(st.st_mtim.tv_sec) * 1'000'000'000ull +
                 static_cast<std::uint64_t>(st.st_mtim.tv_nsec);
  sig.size = static_cast<std::uint64_t>(st.st_size);
  sig.inode = static_cast<std::uint64_t>(st.st_ino);
  return sig;
}

std::vector<std::size_t> poll_readable(const std::vector<int>& fds,
                                       int timeout_ms) {
  std::vector<pollfd> pfds;
  std::vector<std::size_t> index_of;
  pfds.reserve(fds.size());
  for (std::size_t i = 0; i < fds.size(); ++i) {
    if (fds[i] < 0) continue;
    pfds.push_back(pollfd{fds[i], POLLIN, 0});
    index_of.push_back(i);
  }
  std::vector<std::size_t> ready;
  if (pfds.empty()) return ready;
  int r;
  do {
    r = ::poll(pfds.data(), pfds.size(), timeout_ms);
  } while (r < 0 && errno == EINTR);
  IMAP_CHECK_MSG(r >= 0, "poll() failed: " << std::strerror(errno));
  for (std::size_t i = 0; i < pfds.size(); ++i)
    if (pfds[i].revents & (POLLIN | POLLHUP | POLLERR))
      ready.push_back(index_of[i]);
  return ready;
}

FileLock::FileLock(std::string path) : path_(std::move(path)) {
  timespec backoff{0, 2'000'000};  // 2 ms, doubled up to ~128 ms
  while (true) {
    const int fd = ::open(path_.c_str(), O_CREAT | O_EXCL | O_WRONLY, 0644);
    if (fd >= 0) {
      ::dprintf(fd, "%d\n", static_cast<int>(::getpid()));
      ::close(fd);
      held_ = true;
      return;
    }
    IMAP_CHECK_MSG(errno == EEXIST,
                   "lockfile " << path_ << ": " << std::strerror(errno));
    // Steal the lock if its owner is gone (crashed mid-critical-section;
    // the guarded writes are tmp+rename atomic, so stealing is safe).
    std::FILE* f = std::fopen(path_.c_str(), "r");
    if (f) {
      int owner = 0;
      const bool parsed = std::fscanf(f, "%d", &owner) == 1;
      std::fclose(f);
      if (parsed && owner > 0 && ::kill(owner, 0) != 0 && errno == ESRCH) {
        std::remove(path_.c_str());
        continue;  // retry the O_EXCL create immediately
      }
    }
    ::nanosleep(&backoff, nullptr);
    if (backoff.tv_nsec < 128'000'000) backoff.tv_nsec *= 2;
  }
}

FileLock::~FileLock() {
  if (held_) std::remove(path_.c_str());
}

}  // namespace imap::proc
