// Serving-daemon benchmark: grouped forwards (up to 32 rows) vs one row per
// forward, fp64 vs int8, at 1/8/32 concurrent closed-loop HTTP clients
// (min-of-7 wall-clock per cell; min, not mean, because background load
// only ever inflates a rep).
//
// Every cell runs a fresh in-process Server on an ephemeral loopback port
// with one synthetic resident victim (obs 128, {2048, 2048} tanh torso, act
// 16 — large enough that the forward, not HTTP framing, dominates a
// request, so its forwards run on the server's pool, where a queued group
// keeps taking rows until a worker starts it). Each client holds one
// keep-alive connection and fires single-row /infer requests back to back;
// every response is compared bit-for-bit against a direct
// PolicyHandle::query through the same quantization mode, so the speedup
// claim and the correctness claim come from the same run. Results are
// merged into BENCH_parallel.json in the working directory under
// "bench_serve"; the headline number is qps(32 clients, grouped, int8) /
// qps(32 clients, batch-1, int8).
//
// Knobs: IMAP_BENCH_SERVE_ITERS (requests per client per rep, default 12),
// IMAP_BENCH_SERVE_REPS (default 7), each an integer in [1, 1000000] — the
// CI bench-smoke stage shrinks both. Exit status is 1 on any bit-identity
// mismatch; perf numbers never fail the run.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iomanip>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "grid_runner.h"
#include "nn/gaussian.h"
#include "nn/kernel_backend.h"
#include "rl/policy_handle.h"
#include "serve/http.h"
#include "serve/server.h"

using namespace imap;

namespace {

constexpr std::size_t kObsDim = 128;
constexpr std::size_t kActDim = 16;
constexpr std::size_t kHidden = 2048;

std::shared_ptr<const nn::GaussianPolicy> make_victim() {
  Rng rng(29);
  return std::make_shared<const nn::GaussianPolicy>(
      kObsDim, kActDim, std::vector<std::size_t>{kHidden, kHidden}, rng);
}

std::vector<double> client_obs(std::size_t client) {
  Rng rng(1000 + client);
  return rng.normal_vec(kObsDim, 0.0, 0.5);
}

/// The server's shortest-round-trip response formatting, replicated so the
/// expected bodies compare bit-for-bit.
std::string format_row(const std::vector<double>& a) {
  char num[32];
  std::string out;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto res = std::to_chars(num, num + sizeof num, a[i]);
    if (i > 0) out += ' ';
    out.append(num, static_cast<std::size_t>(res.ptr - num));
  }
  out += '\n';
  return out;
}

int connect_to(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                static_cast<socklen_t>(sizeof addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Read one Content-Length-framed response; returns its body.
std::string read_response_body(int fd) {
  std::string buf;
  char chunk[4096];
  for (;;) {
    const std::size_t head_end = buf.find("\r\n\r\n");
    if (head_end != std::string::npos) {
      const std::size_t cl = buf.find("Content-Length: ");
      if (cl == std::string::npos) return "";
      const std::size_t len = static_cast<std::size_t>(
          std::strtoull(buf.c_str() + cl + 16, nullptr, 10));
      if (buf.size() >= head_end + 4 + len)
        return buf.substr(head_end + 4, len);
    }
    const ssize_t n = ::recv(fd, chunk, 4096, 0);
    if (n <= 0) return "";
    buf.append(chunk, static_cast<std::size_t>(n));
  }
}

struct CellResult {
  int clients = 0;
  bool coalesce = false;
  bool quant = false;
  double qps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double mean_batch = 0.0;
  long long mismatches = 0;
};

/// One benchmark cell: a fresh server, `clients` closed-loop connections,
/// min-of-`reps` wall clock.
CellResult run_cell(const std::shared_ptr<const nn::GaussianPolicy>& victim,
                    const std::string& zoo_dir, int clients, bool coalesce,
                    bool quant, int iters, int reps) {
  serve::ServeOptions opts;
  opts.port = 0;
  opts.threads = clients + 2;
  opts.coalesce.max_batch = coalesce ? 32 : 1;
  opts.cache.quant = quant;
  opts.cache.ttl_ms = 3'600'000;
  opts.bench.zoo_dir = zoo_dir;
  serve::Server server(opts);
  server.start();
  server.model_cache().put("Bench", "PPO", victim);

  const rl::PolicyHandle direct = rl::PolicyHandle::serving(victim, quant);
  const std::size_t n = static_cast<std::size_t>(clients);
  std::vector<std::string> request(n), expect(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::string row = format_row(client_obs(i));
    request[i] = "POST /infer?env=Bench HTTP/1.1\r\nContent-Length: " +
                 std::to_string(row.size()) + "\r\n\r\n" + row;
    expect[i] = format_row(direct.query(client_obs(i)));
  }

  ThreadPool pool(n + 1);
  ScopedPool scope(pool);
  std::vector<long long> mismatches(n, 0);
  const double secs = bench::min_seconds(reps, [&] {
    parallel_for(
        n,
        [&](std::size_t i) {
          const int fd = connect_to(server.port());
          if (fd < 0) {
            mismatches[i] += iters;
            return;
          }
          for (int it = 0; it < iters; ++it) {
            if (!serve::send_all(fd, request[i]) ||
                read_response_body(fd) != expect[i])
              ++mismatches[i];
          }
          ::close(fd);
        },
        1);
  });

  CellResult r;
  r.clients = clients;
  r.coalesce = coalesce;
  r.quant = quant;
  r.qps = secs > 0.0 ? static_cast<double>(n) * iters / secs : 0.0;
  r.p50_us = server.metrics().infer_latency_us.percentile(50.0);
  r.p99_us = server.metrics().infer_latency_us.percentile(99.0);
  r.mean_batch = server.metrics().batch_size.mean();
  for (const long long m : mismatches) r.mismatches += m;
  server.stop();
  return r;
}

}  // namespace

int main() {
  const int iters = static_cast<int>(bench::env_int_or_exit(
      "bench_serve", "IMAP_BENCH_SERVE_ITERS", 12, 1, 1'000'000));
  const int reps = static_cast<int>(bench::env_int_or_exit(
      "bench_serve", "IMAP_BENCH_SERVE_REPS", 7, 1, 1'000'000));
  const std::string zoo_dir =
      "/tmp/imap_bench_serve_zoo_" + std::to_string(::getpid());
  std::filesystem::remove_all(zoo_dir);

  const auto victim = make_victim();
  std::vector<CellResult> cells;
  long long mismatches = 0;
  for (const bool quant : {false, true}) {
    for (const bool coalesce : {false, true}) {
      for (const int clients : {1, 8, 32}) {
        const CellResult r =
            run_cell(victim, zoo_dir, clients, coalesce, quant, iters, reps);
        cells.push_back(r);
        mismatches += r.mismatches;
        std::cerr << "bench_serve: clients=" << clients << " coalesce="
                  << (coalesce ? "on " : "off") << " "
                  << (quant ? "int8" : "fp64") << "  " << std::fixed
                  << std::setprecision(0) << r.qps << " req/s  p50 "
                  << r.p50_us << "us p99 " << r.p99_us << "us  mean batch "
                  << std::setprecision(1) << r.mean_batch
                  << (r.mismatches > 0 ? "  MISMATCHES!" : "") << "\n";
      }
    }
  }
  std::filesystem::remove_all(zoo_dir);

  const auto cell_of = [&](int clients, bool coalesce, bool quant) {
    for (const auto& c : cells)
      if (c.clients == clients && c.coalesce == coalesce && c.quant == quant)
        return c;
    return CellResult{};
  };
  const double base = cell_of(32, false, true).qps;
  const double speedup = base > 0.0 ? cell_of(32, true, true).qps / base : 0.0;

  std::ostringstream os;
  os.setf(std::ios::fixed);
  os << "{\"victim\": [" << kObsDim << ", " << kHidden << ", " << kHidden
     << ", " << kActDim
     << "], \"backend\": \"" << nn::kernel::active_backend().name
     << "\", \"reps\": " << reps << ", \"iters_per_client\": " << iters
     << ", \"max_batch\": 32, \"cells\": [";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const auto& c = cells[i];
    os << (i > 0 ? ", " : "") << "{\"clients\": " << c.clients
       << ", \"coalesce\": " << (c.coalesce ? "true" : "false")
       << ", \"quant\": \"" << (c.quant ? "int8" : "fp64") << "\"";
    os.precision(0);
    os << ", \"qps\": " << c.qps << ", \"p50_us\": " << c.p50_us
       << ", \"p99_us\": " << c.p99_us;
    os.precision(1);
    os << ", \"mean_batch\": " << c.mean_batch << "}";
  }
  os.precision(3);
  os << "], \"speedup_32_int8_coalesced_vs_batch1\": " << speedup
     << ", \"bit_identical\": " << (mismatches == 0 ? "true" : "false")
     << "}";
  bench::write_parallel_report_entry("bench_serve", os.str());

  std::cerr << "bench_serve: 32-client int8 coalescing speedup "
            << std::setprecision(2) << speedup << "x vs batch-1 server path ("
            << (mismatches == 0 ? "all responses bit-identical"
                                : "BIT-IDENTITY FAILURES")
            << ") -> BENCH_parallel.json\n";
  return mismatches == 0 ? 0 : 1;
}
