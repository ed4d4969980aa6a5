#include "serve_load.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cstring>
#include <ctime>
#include <stdexcept>

#include "common/rng.h"
#include "nn/batch.h"
#include "nn/checkpoint.h"
#include "nn/mlp.h"

namespace e2e {

namespace {

int connect_loopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    throw std::runtime_error("connect() to 127.0.0.1:" +
                             std::to_string(port) + " failed");
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
  return fd;
}

/// Consume one complete HTTP response from the front of `in`. Returns false
/// while incomplete.
bool take_response(std::string& in, int& status, std::string& body) {
  const std::size_t head_end = in.find("\r\n\r\n");
  if (head_end == std::string::npos) return false;
  std::size_t length = 0;
  const std::size_t cl = in.find("Content-Length:");
  if (cl != std::string::npos && cl < head_end)
    length = std::strtoull(in.c_str() + cl + 15, nullptr, 10);
  if (in.size() < head_end + 4 + length) return false;
  status = in.compare(0, 5, "HTTP/") == 0 && in.size() > 12
               ? std::atoi(in.c_str() + 9)
               : 0;
  body.assign(in, head_end + 4, length);
  in.erase(0, head_end + 4 + length);
  return true;
}

void append_row(std::string& out, const double* v, std::size_t n) {
  char num[32];
  for (std::size_t i = 0; i < n; ++i) {
    const auto res = std::to_chars(num, num + sizeof num, v[i]);
    if (i) out += ' ';
    out.append(num, res.ptr);
  }
  out += '\n';
}

/// Parse a body of whitespace-separated doubles; false on any bad token.
bool parse_doubles(const std::string& body, std::vector<double>& out) {
  out.clear();
  const char* p = body.data();
  const char* const end = p + body.size();
  while (p != end) {
    if (*p == ' ' || *p == '\n' || *p == '\r') {
      ++p;
      continue;
    }
    double v = 0.0;
    const auto res = std::from_chars(p, end, v);
    if (res.ec != std::errc{}) return false;
    out.push_back(v);
    p = res.ptr;
  }
  return true;
}

}  // namespace

struct LoadGen::Conn {
  int port = 0;
  int fd = -1;
  bool busy = false;
  std::string out;
  std::size_t out_off = 0;
  std::string in;
  long request = -1;  ///< outcome index, -1 for a control request

  void open() { fd = connect_loopback(port); }
  void reset() {
    if (fd >= 0) ::close(fd);
    in.clear();
    out.clear();
    out_off = 0;
    busy = false;
    open();
  }
  /// Write as much of `out` as the socket takes; false on a dead peer.
  bool flush() {
    while (out_off < out.size()) {
      const ssize_t n = ::send(fd, out.data() + out_off, out.size() - out_off,
                               MSG_NOSIGNAL);
      if (n < 0) return errno == EAGAIN || errno == EWOULDBLOCK;
      out_off += static_cast<std::size_t>(n);
    }
    return true;
  }
  /// Read what is available; false on EOF or a hard error.
  bool fill() {
    char buf[65536];
    for (;;) {
      const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
      if (n > 0) {
        in.append(buf, static_cast<std::size_t>(n));
        continue;
      }
      if (n == 0) return false;
      return errno == EAGAIN || errno == EWOULDBLOCK;
    }
  }
};

LoadGen::LoadGen(int port, int conns, std::vector<Victim> victims,
                 std::uint64_t seed)
    : victims_(std::move(victims)), seed_(seed) {
  // Sleeps in ppoll() end within a microsecond of the deadline instead of
  // the default 50 us timer slack, which would otherwise show as lateness.
  // (Serving children reset it: see Daemon.)
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  for (int i = 0; i < conns; ++i) {
    auto c = std::make_unique<Conn>();
    c->port = port;
    c->open();
    conns_.push_back(std::move(c));
  }
}

LoadGen::~LoadGen() {
  for (auto& c : conns_)
    if (c->fd >= 0) ::close(c->fd);
}

std::string infer_request(const Victim& v, int rows, std::uint64_t seed,
                          std::uint64_t index, std::vector<double>* obs_out) {
  const std::size_t dim = v.reference.obs_dim();
  imap::Rng rng = imap::Rng(seed).split(index);
  std::vector<double> obs = rng.normal_vec(dim * static_cast<std::size_t>(rows));
  std::string body;
  for (int r = 0; r < rows; ++r)
    append_row(body, obs.data() + static_cast<std::size_t>(r) * dim, dim);
  if (obs_out != nullptr) *obs_out = std::move(obs);
  return "POST /infer?env=" + v.env + "&defense=" + v.defense +
         " HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

int LoadGen::roundtrip(const std::string& request, std::string& body) {
  Conn& c = *conns_.at(0);
  c.out = request;
  c.out_off = 0;
  for (;;) {
    if (!c.flush() || !c.fill()) {
      c.reset();
      return 0;
    }
    int status = 0;
    if (c.out_off == c.out.size() && take_response(c.in, status, body))
      return status;
    pollfd p{c.fd, static_cast<short>(POLLIN | (c.out_off < c.out.size() ? POLLOUT : 0)), 0};
    ::poll(&p, 1, 1000);
  }
}

PhaseResult LoadGen::run(const Phase& phase, Tracer* tracer) {
  PhaseResult res;
  res.name = phase.name;
  const bool closed = phase.closed_requests > 0;
  const auto closed_n = static_cast<std::size_t>(phase.closed_requests);
  std::string scrape;
  roundtrip("GET /metrics HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n", scrape);
  res.metrics_before = scrape;

  // Build every request before the clock starts so the send path is a copy.
  std::vector<std::string> wire;
  std::vector<std::vector<double>> obs;
  const std::vector<Item>& shapes = closed ? phase.mix : phase.items;
  const std::size_t pool = closed ? 4096 : shapes.size();
  wire.reserve(pool);
  obs.resize(pool);
  for (std::size_t i = 0; i < pool; ++i) {
    const Item& it = shapes[i % shapes.size()];
    if (it.rows == 0) {
      const Victim& v = victims_.at(static_cast<std::size_t>(it.victim));
      wire.push_back("POST /models/invalidate?env=" + v.env + "&defense=" +
                     v.defense + " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n");
    } else {
      wire.push_back(infer_request(victims_.at(static_cast<std::size_t>(it.victim)),
                                   it.rows, seed_, next_index_++, &obs[i]));
    }
  }

  std::vector<std::size_t> wire_of;  // outcome -> wire slot
  res.requests.reserve(closed ? closed_n : pool);
  std::vector<pollfd> pfds;
  std::vector<Conn*> polled;
  Tracer::Scope span(tracer, ("serve.phase." + phase.name).c_str());
  const double trace_off = tracer ? tracer->now() + 0.002 : 0.0;
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(2);
  const auto now_s = [&] { return std::chrono::duration<double>(Clock::now() - t0).count(); };

  std::size_t next = 0, due_ptr = 0;
  const std::size_t n_items = closed ? 0 : phase.items.size();
  std::string body;
  for (;;) {
    double now = now_s();
    Conn* free_conn = nullptr;
    for (auto& c : conns_)
      if (!c->busy) {
        free_conn = c.get();
        break;
      }
    // Dispatch everything that is due while a connection is free.
    while (free_conn != nullptr) {
      std::size_t slot = 0;
      Outcome o;
      if (closed) {
        if (res.requests.size() >= closed_n) break;
        slot = res.requests.size() % pool;
        o.due_s = now;
      } else {
        if (next >= n_items || phase.items[next].due_s > now) break;
        slot = next++;
        o.due_s = phase.items[slot].due_s;
      }
      const Item& it = shapes[slot % shapes.size()];
      Conn& c = *free_conn;
      c.out = wire[slot];
      c.out_off = 0;
      c.busy = true;
      if (it.rows == 0) {
        const Victim& v = victims_.at(static_cast<std::size_t>(it.victim));
        if (!imap::nn::save_policy(v.path, *v.policy))
          throw std::runtime_error("cannot re-save " + v.path);
        c.request = -1;
        ++res.reloads;
      } else {
        o.victim = it.victim;
        o.rows = it.rows;
        o.sent_s = now_s();
        c.request = static_cast<long>(res.requests.size());
        res.requests.push_back(o);
        wire_of.push_back(slot);
      }
      if (!c.flush()) {
        if (c.request >= 0) res.requests[static_cast<std::size_t>(c.request)].done_s = now_s();
        c.reset();
      }
      free_conn = nullptr;
      for (auto& cc : conns_)
        if (!cc->busy) {
          free_conn = cc.get();
          break;
        }
      now = now_s();
    }
    if (!closed) {
      while (due_ptr < n_items && phase.items[due_ptr].due_s <= now) ++due_ptr;
      res.max_backlog = std::max<long long>(res.max_backlog,
                                            static_cast<long long>(due_ptr - next));
    }
    bool any_busy = false;
    for (auto& c : conns_) any_busy = any_busy || c->busy;
    const bool sources_done =
        closed ? res.requests.size() >= closed_n : next >= n_items;
    if (sources_done && !any_busy) break;

    // Sleep until the next due time or the next readable socket.
    double wait_s = 0.05;
    if (free_conn != nullptr && !sources_done) {
      const double due = closed ? now : phase.items[next].due_s;
      wait_s = std::clamp(due - now, 0.0, 0.05);
    }
    pfds.clear();
    polled.clear();
    for (auto& c : conns_) {
      if (!c->busy) continue;
      short ev = POLLIN;
      if (c->out_off < c->out.size()) ev = static_cast<short>(ev | POLLOUT);
      pfds.push_back({c->fd, ev, 0});
      polled.push_back(c.get());
    }
    timespec ts{static_cast<time_t>(wait_s),
                static_cast<long>((wait_s - static_cast<double>(static_cast<time_t>(wait_s))) * 1e9)};
    ::ppoll(pfds.data(), pfds.size(), &ts, nullptr);
    for (std::size_t i = 0; i < pfds.size(); ++i) {
      if (pfds[i].revents == 0) continue;
      Conn& c = *polled[i];
      bool alive = c.flush() && c.fill();
      int status = 0;
      if (take_response(c.in, status, body)) {
        const double done = now_s();
        if (c.request >= 0) {
          Outcome& o = res.requests[static_cast<std::size_t>(c.request)];
          o.done_s = done;
          o.status = status;
          res.bodies.resize(res.requests.size());
          res.bodies[static_cast<std::size_t>(c.request)] = body;
          if (tracer != nullptr) tracer->record("serve.request", trace_off + o.sent_s, trace_off + done);
        } else if (status != 200) {
          throw std::runtime_error("/models/invalidate answered " + std::to_string(status));
        }
        c.busy = false;
      } else if (!alive) {
        if (c.request >= 0) res.requests[static_cast<std::size_t>(c.request)].done_s = now_s();
        c.reset();
      }
    }
  }
  for (const auto& o : res.requests)
    res.wall_s = std::max(res.wall_s, o.done_s - res.requests.front().due_s);
  res.inputs.reserve(wire_of.size());
  for (const std::size_t slot : wire_of) res.inputs.push_back(obs[slot]);
  res.bodies.resize(res.requests.size());
  roundtrip("GET /metrics HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n", scrape);
  res.metrics_after = scrape;
  return res;
}

long long LoadGen::verify(PhaseResult& r) const {
  long long failed = 0;
  imap::nn::Mlp::Workspace ws;
  imap::nn::Batch in;
  std::vector<double> got;
  for (std::size_t i = 0; i < r.requests.size(); ++i) {
    Outcome& o = r.requests[i];
    const Victim& v = victims_.at(static_cast<std::size_t>(o.victim));
    const std::size_t od = v.reference.obs_dim(), ad = v.reference.act_dim();
    const std::vector<double>& obs = r.inputs.at(i);
    std::vector<double> want;
    if (o.rows == 1) {
      want = v.reference.query(obs);
    } else {
      in.resize(static_cast<std::size_t>(o.rows), od);
      for (int k = 0; k < o.rows; ++k)
        std::copy_n(obs.data() + static_cast<std::size_t>(k) * od, od, in.row(static_cast<std::size_t>(k)));
      const imap::nn::Batch& out = v.reference.query_batch(in, ws);
      for (int k = 0; k < o.rows; ++k)
        want.insert(want.end(), out.row(static_cast<std::size_t>(k)), out.row(static_cast<std::size_t>(k)) + ad);
    }
    o.ok = o.status == 200 && parse_doubles(r.bodies.at(i), got) &&
           got.size() == want.size() &&
           std::memcmp(got.data(), want.data(), want.size() * sizeof(double)) == 0;
    if (!o.ok) ++failed;
  }
  return failed;
}

double scrape_value(const std::string& text, const std::string& name) {
  std::size_t pos = 0;
  while ((pos = text.find(name + ' ', pos)) != std::string::npos) {
    if (pos == 0 || text[pos - 1] == '\n')
      return std::strtod(text.c_str() + pos + name.size() + 1, nullptr);
    pos += name.size();
  }
  return 0.0;
}

}  // namespace e2e
