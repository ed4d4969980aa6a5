#include "serve/http.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstring>

#include "common/check.h"

namespace imap::serve {

std::string HttpRequest::param(const std::string& name,
                               const std::string& fallback) const {
  const auto it = params.find(name);
  return it == params.end() ? fallback : it->second;
}

std::optional<long long> HttpRequest::param_ll(const std::string& name,
                                               long long fallback) const {
  const auto it = params.find(name);
  if (it == params.end() || it->second.empty()) return fallback;
  const std::string& s = it->second;
  // from_chars: out of range is an error, never a saturated LLONG_MAX.
  long long v = 0;
  const auto res = std::from_chars(s.data(), s.data() + s.size(), v);
  if (res.ec != std::errc{} || res.ptr != s.data() + s.size())
    return std::nullopt;
  return v;
}

namespace {

void parse_query(const std::string& query,
                 std::map<std::string, std::string>& params) {
  std::size_t pos = 0;
  while (pos < query.size()) {
    std::size_t amp = query.find('&', pos);
    if (amp == std::string::npos) amp = query.size();
    const std::size_t eq = query.find('=', pos);
    if (eq == std::string::npos || eq > amp) {
      if (amp > pos) params[query.substr(pos, amp - pos)] = "";
    } else {
      params[query.substr(pos, eq - pos)] =
          query.substr(eq + 1, amp - eq - 1);
    }
    pos = amp + 1;
  }
}

/// Case-insensitive match of buf[begin, end) against a lowercase name —
/// header names compare without slicing a per-header std::string off the
/// connection buffer.
bool header_name_is(const std::string& buf, std::size_t begin,
                    std::size_t end, const char* lower) {
  std::size_t i = begin;
  for (; *lower != '\0' && i < end; ++i, ++lower)
    if (std::tolower(static_cast<unsigned char>(buf[i])) != *lower)
      return false;
  return *lower == '\0' && i == end;
}

}  // namespace

ParseStatus parse_request(std::string& buf, HttpRequest& out) {
  const std::size_t head_end = buf.find("\r\n\r\n");
  if (head_end == std::string::npos)
    return buf.size() > kMaxRequestBytes ? ParseStatus::Bad
                                         : ParseStatus::Incomplete;

  // Request line: METHOD SP target SP HTTP/1.x
  const std::size_t line_end = buf.find("\r\n");
  const std::string line = buf.substr(0, line_end);
  const std::size_t sp1 = line.find(' ');
  const std::size_t sp2 = sp1 == std::string::npos
                              ? std::string::npos
                              : line.find(' ', sp1 + 1);
  if (sp2 == std::string::npos || line.compare(sp2 + 1, 5, "HTTP/") != 0)
    return ParseStatus::Bad;

  out = HttpRequest{};
  out.method = line.substr(0, sp1);
  std::string target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  const std::size_t q = target.find('?');
  if (q == std::string::npos) {
    out.path = target;
  } else {
    out.path = target.substr(0, q);
    parse_query(target.substr(q + 1), out.params);
  }
  if (out.path.empty() || out.path[0] != '/') return ParseStatus::Bad;

  // Headers: only Content-Length matters to this dialect.
  std::size_t content_length = 0;
  std::size_t pos = line_end + 2;
  while (pos < head_end) {
    std::size_t eol = buf.find("\r\n", pos);
    if (eol == std::string::npos || eol > head_end) eol = head_end;
    const std::size_t colon = buf.find(':', pos);
    if (colon != std::string::npos && colon < eol &&
        header_name_is(buf, pos, colon, "content-length")) {
      // Digits only, optionally padded by spaces and tabs. A sign, trailing
      // junk or a value over the request bound is malformed, checked before
      // the size sum below so that sum cannot wrap.
      const char* p = buf.data() + colon + 1;
      const char* last = buf.data() + eol;
      while (p != last && (*p == ' ' || *p == '\t')) ++p;
      while (last != p && (last[-1] == ' ' || last[-1] == '\t')) --last;
      std::uint64_t n = 0;
      const auto res = std::from_chars(p, last, n);
      if (res.ec != std::errc{} || res.ptr != last || n > kMaxRequestBytes)
        return ParseStatus::Bad;
      content_length = static_cast<std::size_t>(n);
    }
    pos = eol + 2;
  }

  const std::size_t total = head_end + 4 + content_length;
  if (total > kMaxRequestBytes) return ParseStatus::Bad;
  if (buf.size() < total) return ParseStatus::Incomplete;
  out.body = buf.substr(head_end + 4, content_length);
  buf.erase(0, total);
  return ParseStatus::Ok;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char hex[8];
      std::snprintf(hex, sizeof hex, "\\u%04x",
                    static_cast<unsigned>(static_cast<unsigned char>(c)));
      out += hex;
    } else {
      out += c;
    }
  }
  return out;
}

const char* status_text(int status) {
  switch (status) {
    case 200: return "OK";
    case 202: return "Accepted";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
  }
  return "Unknown";
}

std::string format_response(int status, const std::string& content_type,
                            const std::string& body) {
  std::string r;
  r.reserve(body.size() + 128);
  r += "HTTP/1.1 ";
  r += std::to_string(status);
  r += ' ';
  r += status_text(status);
  r += "\r\nContent-Type: ";
  r += content_type;
  r += "\r\nContent-Length: ";
  r += std::to_string(body.size());
  r += "\r\nConnection: keep-alive\r\n\r\n";
  r += body;
  return r;
}

int listen_on(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  IMAP_CHECK_MSG(fd >= 0, "socket() failed: " << std::strerror(errno));
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one,
               static_cast<socklen_t>(sizeof one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr),
             static_cast<socklen_t>(sizeof addr)) != 0) {
    const int e = errno;
    ::close(fd);
    IMAP_CHECK_MSG(false, "bind(127.0.0.1:" << port
                          << ") failed: " << std::strerror(e));
  }
  if (::listen(fd, 128) != 0) {
    const int e = errno;
    ::close(fd);
    IMAP_CHECK_MSG(false, "listen() failed: " << std::strerror(e));
  }
  // Non-blocking accepts: a connection that vanishes between poll() and
  // accept() must not wedge the loop.
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  return fd;
}

std::uint16_t bound_port(int listen_fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof addr;
  IMAP_CHECK_MSG(::getsockname(listen_fd,
                               reinterpret_cast<sockaddr*>(&addr), &len) == 0,
                 "getsockname() failed: " << std::strerror(errno));
  return ntohs(addr.sin_port);
}

int accept_connection(int listen_fd) {
  const int fd = ::accept(listen_fd, nullptr, nullptr);
  if (fd < 0) return -1;
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one,
               static_cast<socklen_t>(sizeof one));
  // Reads are poll-driven; non-blocking guards against a spurious readiness
  // wedging the connection loop on one socket.
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  return fd;
}

bool recv_available(int fd, std::string& buf, std::span<char> scratch) {
  const ssize_t n = ::recv(fd, scratch.data(), scratch.size(), 0);
  if (n <= 0) {
    // Spurious wakeup (readiness consumed elsewhere) is not a dead peer.
    return n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
  }
  buf.append(scratch.data(), static_cast<std::size_t>(n));
  return true;
}

bool send_some(int fd, const std::string& data, std::size_t& off) {
  while (off < data.size()) {
    const ssize_t n = ::send(fd, data.data() + off, data.size() - off,
                             MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n < 0) {
      if (errno == EINTR) continue;
      return errno == EAGAIN || errno == EWOULDBLOCK;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

bool send_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (send_some(fd, data, off)) {
    if (off == data.size()) return true;
    pollfd p{fd, POLLOUT, 0};
    ::poll(&p, 1, -1);
  }
  return false;
}

}  // namespace imap::serve
