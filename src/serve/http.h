#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>

namespace imap::serve {

/// One parsed HTTP/1.1 request. The daemon speaks a deliberately small
/// dialect: request line + headers + optional Content-Length body,
/// keep-alive connections, no chunked encoding, no continuation lines.
/// Query parameters are split on '&'/'=' without percent-decoding — every
/// value the API accepts (env names, defenses, integers) is URL-safe as is.
struct HttpRequest {
  std::string method;  ///< "GET" / "POST"
  std::string path;    ///< target without the query string, e.g. "/infer"
  std::map<std::string, std::string> params;  ///< parsed query string
  std::string body;

  /// Query parameter by name, or `fallback` when absent.
  std::string param(const std::string& name,
                    const std::string& fallback = "") const;
  /// Integer query parameter: `fallback` when absent or empty, nullopt when
  /// present but not a decimal integer in range (the route answers 400).
  std::optional<long long> param_ll(const std::string& name,
                                    long long fallback) const;
};

enum class ParseStatus {
  Incomplete,  ///< need more bytes
  Ok,          ///< one request consumed from the front of the buffer
  Bad,         ///< malformed — the connection should answer 400 and close
};

/// Maximum accepted request size (request line + headers + body). A client
/// exceeding it is malformed by definition — the bound keeps one connection
/// from growing an unbounded buffer.
inline constexpr std::size_t kMaxRequestBytes = 8u << 20;

/// Try to consume one complete request from the front of `buf` (bytes
/// accumulated from the socket so far; consumed bytes are erased, pipelined
/// followers stay in place).
ParseStatus parse_request(std::string& buf, HttpRequest& out);

/// Serialize a response with Content-Length and keep-alive headers.
std::string format_response(int status, const std::string& content_type,
                            const std::string& body);

/// `s` escaped for the inside of a JSON string literal: quote and backslash
/// get a backslash, every control character becomes \u00XX, so any text —
/// an error message, a client-supplied name — yields well-formed JSON.
std::string json_escape(const std::string& s);

/// Reason phrase for the handful of status codes the daemon emits.
const char* status_text(int status);

/// Loopback listening socket (SO_REUSEADDR, non-blocking accepts). Pass
/// port 0 for an ephemeral port; `bound_port` reports the actual one.
/// Throws CheckError on failure.
int listen_on(std::uint16_t port);
std::uint16_t bound_port(int listen_fd);

/// Accept one pending connection, or -1 when none is pending.
int accept_connection(int listen_fd);

/// Append whatever is currently readable on `fd` to `buf`, at most
/// scratch.size() bytes, received into `scratch` (the caller's reusable read
/// buffer) so that `buf` grows only by the bytes read. Returns false on EOF
/// or a hard error (the connection is dead), true otherwise.
bool recv_available(int fd, std::string& buf, std::span<char> scratch);

/// Send what the socket takes of `data` from `off` on without blocking,
/// advancing `off`. Returns false when the peer is gone (EPIPE / reset) —
/// the torn-request case the serving loop absorbs without disturbing other
/// connections; a full socket buffer is not an error.
bool send_some(int fd, const std::string& data, std::size_t& off);

/// Write all of `data`, waiting for room when the socket is full (a client
/// helper: the server's loop never blocks on a socket). Returns false when
/// the peer is gone.
bool send_all(int fd, const std::string& data);

}  // namespace imap::serve
