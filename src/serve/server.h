#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/config.h"
#include "common/thread_pool.h"
#include "core/zoo.h"
#include "serve/coalescer.h"
#include "serve/http.h"
#include "serve/jobs.h"
#include "serve/metrics.h"
#include "serve/model_cache.h"

namespace imap::serve {

/// Daemon configuration — the env-var surface of tools/imap_serve.
struct ServeOptions {
  std::uint16_t port = 0;  ///< 0 binds an ephemeral port (see Server::port)
  int threads = 8;         ///< request-handler workers
  Coalescer::Options coalesce;
  ModelCache::Options cache;
  int job_runners = 1;     ///< concurrently training jobs
  BenchConfig bench;       ///< zoo directory / scale / seed behind the API
};

/// The robustness-evaluation serving daemon.
///
/// One process loads the victim zoo once and keeps hot models resident; a
/// poll-driven connection loop (proc::poll_readable over the listen socket,
/// a self-pipe and every idle connection) parses requests and hands each to
/// the worker pool, so a slow handler never blocks the loop and a client
/// disconnect mid-response (torn request) costs exactly one connection.
///
/// Routes:
///   POST /infer?env=E&defense=D   body: one observation per line
///                                 -> one action row per line (shortest
///                                 round-trip doubles, bit-identical to
///                                 PolicyHandle::query)
///   POST /attack/train?env=E&attack=IMAP-PC&...  -> {"id": N}  (202)
///   GET  /attack/status?id=N      -> job state / outcome JSON
///   GET  /models                  -> resident-model listing
///   POST /models/invalidate[?env=E&defense=D]
///   GET  /health, GET /metrics
///
/// Single-row /infer requests ride the cross-connection Coalescer;
/// multi-row bodies are already a batch and go straight to query_batch.
class Server {
 public:
  explicit Server(ServeOptions opts);
  ~Server();

  /// Bind and start serving (the loop runs on the server's own pool).
  void start();
  /// Stop accepting, drain in-flight handlers and close every connection.
  /// Idempotent; the destructor calls it.
  void stop();

  std::uint16_t port() const { return port_; }
  const ServeOptions& options() const { return opts_; }
  ServeMetrics& metrics() { return metrics_; }
  ModelCache& model_cache() { return cache_; }
  core::Zoo& zoo() { return zoo_; }
  JobRegistry& jobs() { return jobs_; }

 private:
  struct Conn {
    std::string buf;
    bool busy = false;  ///< a handler owns this fd until it reports back
  };

  void loop();
  /// Pool task: route, respond, report the fd back to the loop.
  /// `admission` is the coalescer's count of this /infer request (empty for
  /// other routes); it ends before the response is written.
  void handle_request(int fd, HttpRequest req,
                      Coalescer::Admission admission);
  std::string dispatch(const HttpRequest& req, int& status,
                       std::string& content_type,
                       Coalescer::Admission admission);

  std::string route_infer(const HttpRequest& req, int& status,
                          Coalescer::Admission admission);
  std::string route_attack_train(const HttpRequest& req, int& status);
  std::string route_attack_status(const HttpRequest& req, int& status);

  /// Parse complete requests buffered on an idle connection; dispatch the
  /// first and keep the rest (HTTP/1.1: one in-flight request per
  /// connection); a dispatched /infer is admitted to the coalescer. Returns
  /// false when the connection turned bad (400 sent).
  bool pump_conn(int fd, Conn& conn);
  void wake_loop();

  ServeOptions opts_;
  ServeMetrics metrics_;
  core::Zoo zoo_;
  ModelCache cache_;
  Coalescer coalescer_;
  JobRegistry jobs_;
  std::unique_ptr<ThreadPool> pool_;

  int listen_fd_ = -1;
  int wake_r_ = -1;  ///< self-pipe: handlers/stop() poke the poll loop
  int wake_w_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  bool started_ = false;
  bool stopped_ = false;

  std::mutex done_m_;
  std::condition_variable done_cv_;
  bool loop_exited_ = false;

  std::mutex comp_m_;
  /// (fd, response delivered) pairs reported by finished handlers.
  std::vector<std::pair<int, bool>> completed_;

  std::map<int, Conn> conns_;  ///< owned by the loop thread only
};

}  // namespace imap::serve
