// Fixture: descriptor I/O shapes the ipc-framing rule must NOT flag —
// byte-pointer plumbing that moves an archive's bytes, member send/recv on
// some class, and non-I/O identifiers that happen to share the names. Zero
// findings.
#include <cstddef>
#include <cstdint>
#include <unistd.h>

namespace imap {

// Byte-pointer plumbing, the shape of serve/http.cpp's send_all: the buffer
// is an opaque byte cursor, the size is a runtime count — no object layout
// crosses the descriptor.
bool write_all(int fd, const std::uint8_t* p, std::size_t n) {
  std::size_t off = 0;
  while (off < n) {
    const auto rc = ::write(fd, p + off, n - off);
    if (rc <= 0) return false;
    off += static_cast<std::size_t>(rc);
  }
  return true;
}

std::size_t read_upto(int fd, std::uint8_t* p, std::size_t n) {
  const auto rc = ::read(fd, p, n);
  return rc > 0 ? static_cast<std::size_t>(rc) : 0;
}

// Member send/recv are somebody's API, not descriptor I/O.
struct Channel {
  bool send(const std::uint8_t* bytes, std::size_t n);
  bool recv(std::uint8_t* bytes, std::size_t n);
};

bool relay(Channel& ch, const std::uint8_t* frame, std::size_t n) {
  if (!ch.send(frame, n)) return false;
  std::uint8_t echo[16];
  return ch.recv(echo, sizeof(echo) <= n ? 16 : n);
}

}  // namespace imap
