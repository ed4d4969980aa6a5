// imap_serve: the long-running robustness-evaluation serving daemon.
//
// Loads the victim zoo once, keeps hot models resident in a TTL'd cache and
// answers HTTP on 127.0.0.1 (see src/serve/server.h for the route table).
// One poll loop answers every request whose victim is resident, in one hop;
// the single-row /infer requests one poll round reads for the same victim
// share one batched int8 forward — responses stay bit-identical to direct
// per-request queries, and nothing waits for rows that have not arrived.
// Cold model builds and forwards too large for the loop go to the pool.
//
//   Usage: imap_serve [--port N] [--print-port]
//
// Configuration (flags override environment):
//   IMAP_SERVE_PORT         listen port, 0..65535 (default 8950; 0 = ephemeral)
//   IMAP_SERVE_THREADS      pool workers for model builds and large
//                           forwards, 1..256 (default 8)
//   IMAP_SERVE_MAX_BATCH    rows per grouped forward, 0..4096 (default 32;
//                           0 or 1: one row per forward)
//   IMAP_SERVE_QUANT        1/0: serve victims through int8 (default 1)
//   IMAP_SERVE_CACHE_TTL_MS model-cache TTL, 0..86400000 (default 60000)
//   IMAP_SERVE_CACHE_CAP    resident-model capacity, 1..4096 (default 16)
//   plus the usual IMAP_ZOO_DIR / IMAP_BENCH_SCALE / IMAP_SEED knobs.
// A malformed or out-of-range integer (flag or env) exits 1 naming the knob.
//
// SIGINT/SIGTERM drain in-flight requests and exit 0.

#include <unistd.h>

#include <csignal>
#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <string>

#include "common/config.h"
#include "common/proc.h"
#include "serve/server.h"

namespace {

// Classic self-pipe: the handler sets the flag and pokes the pipe the main
// thread is blocked on (write(2) is async-signal-safe), so shutdown starts
// immediately instead of on the next poll timeout.
volatile std::sig_atomic_t g_stop = 0;
int g_wake_w = -1;

void on_signal(int) {
  g_stop = 1;
  if (g_wake_w >= 0) {
    const ssize_t rc = ::write(g_wake_w, "x", 1);
    (void)rc;
  }
}

constexpr long long kMaxPort = 65535;

int env_knob(const char* name, int fallback, long long lo, long long hi) {
  return static_cast<int>(imap::env_int(name, fallback, lo, hi));
}

}  // namespace

int main(int argc, char** argv) {
  imap::serve::ServeOptions opts;
  bool print_port = false;
  try {
    opts.bench = imap::BenchConfig::from_env();
    opts.port = static_cast<std::uint16_t>(
        imap::env_int("IMAP_SERVE_PORT", 8950, 0, kMaxPort));
    opts.threads = env_knob("IMAP_SERVE_THREADS", 8, 1, 256);
    opts.coalesce.max_batch = env_knob("IMAP_SERVE_MAX_BATCH", 32, 0, 4096);
    opts.cache.quant = env_knob("IMAP_SERVE_QUANT", 1, 0, 1) != 0;
    opts.cache.ttl_ms =
        imap::env_int("IMAP_SERVE_CACHE_TTL_MS", 60'000, 0, 86'400'000);
    opts.cache.capacity = env_knob("IMAP_SERVE_CACHE_CAP", 16, 1, 4096);

    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--port" && i + 1 < argc) {
        opts.port = static_cast<std::uint16_t>(
            imap::parse_int("--port", argv[++i], 0, kMaxPort));
      } else if (arg == "--print-port") {
        print_port = true;
      } else {
        std::cerr << "imap_serve: unknown flag " << arg << "\n";
        return 1;
      }
    }
  } catch (const std::invalid_argument& e) {
    std::cerr << "imap_serve: " << e.what() << "\n";
    return 1;
  }

  int wake[2];
  if (::pipe(wake) != 0) {
    std::cerr << "imap_serve: pipe() failed\n";
    return 1;
  }
  g_wake_w = wake[1];
  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);

  imap::serve::Server server(opts);
  server.start();
  if (print_port) std::cout << server.port() << std::endl;
  std::cerr << "imap_serve: listening on 127.0.0.1:" << server.port()
            << " (zoo: " << opts.bench.zoo_dir
            << ", max_batch: " << opts.coalesce.max_batch
            << ", quant: " << (opts.cache.quant ? "int8" : "fp64") << ")\n";

  // The server runs on its own pool; this thread blocks on the self-pipe
  // until a signal arrives.
  while (g_stop == 0) imap::proc::poll_readable({wake[0]}, 1000);
  std::cerr << "imap_serve: draining and shutting down\n";
  server.stop();
  return 0;
}
