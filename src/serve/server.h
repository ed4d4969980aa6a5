#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
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
  int threads = 8;         ///< pool workers: model builds, large forwards
  Coalescer::Options coalesce;
  ModelCache::Options cache;
  int job_runners = 1;     ///< concurrently training jobs
  BenchConfig bench;       ///< zoo directory / scale / seed behind the API
};

/// The robustness-evaluation serving daemon.
///
/// One process loads the victim zoo once and keeps hot models resident. A
/// single poll loop owns every socket and answers each request whose victim
/// is resident itself, in one hop: per poll round it reads every readable
/// connection, parses one request per idle connection, answers the cheap
/// routes on the spot and runs one forward per victim over the round's
/// single-row /infer requests (a multi-row body is its own forward). Only
/// model builds (a cold start, a reload or a training run, behind
/// ModelCache::get) and forwards too large for the loop
/// (Coalescer::runs_inline) go to the worker pool. Only the loop writes
/// sockets, without blocking, so a slow reader holds its own connection and
/// nothing else, and a torn request costs one connection.
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
class Server {
 public:
  explicit Server(ServeOptions opts);
  ~Server();

  /// Bind and start serving (the loop runs on the server's own pool).
  void start();
  /// Stop accepting, drain in-flight pool tasks and close every connection.
  /// Idempotent; the destructor calls it.
  void stop();

  std::uint16_t port() const { return port_; }
  const ServeOptions& options() const { return opts_; }
  ServeMetrics& metrics() { return metrics_; }
  ModelCache& model_cache() { return cache_; }
  core::Zoo& zoo() { return zoo_; }
  JobRegistry& jobs() { return jobs_; }

 private:
  using Clock = std::chrono::steady_clock;

  struct Conn {
    std::string in;        ///< received bytes not parsed yet
    std::string out;       ///< the answer being sent, `sent` bytes of it out
    std::size_t sent = 0;
    bool busy = false;     ///< its request waits on a forward or a build
    bool dead = false;     ///< peer gone or request malformed: close it
  };
  /// One /infer request's rows within a group.
  struct Member {
    int fd;
    std::size_t rows;
    Clock::time_point t0;  ///< parse time, for the latency histogram
  };
  /// Rows bound for one victim snapshot, answered by one forward.
  struct Group {
    std::shared_ptr<const ServedModel> model;
    std::vector<double> obs;  ///< rows × obs_dim, row-major
    std::size_t rows = 0;
    std::vector<Member> members;
  };
  /// A pool-path group of single-row requests: it keeps taking rows for
  /// its snapshot from later poll rounds until a worker starts it.
  struct QueuedGroup {
    std::mutex m;
    bool started = false;
    Group group;
  };
  /// An /infer request waiting for its victim to be built.
  struct Parked {
    int fd;
    std::string body;
    Clock::time_point t0;
  };
  using Replies = std::vector<std::pair<int, std::string>>;  ///< fd, answer
  using ModelKey = std::pair<std::string, std::string>;  ///< env, defense

  void loop();
  /// Parse and route requests while the connection is idle and flushed:
  /// answer inline, or leave it busy while its /infer waits on a group or
  /// the pool. A malformed request is answered 400 and marks it dead.
  void pump_conn(int fd, Conn& conn);
  /// Every route but POST /infer, answered on the spot.
  void answer_inline(int fd, const HttpRequest& req);
  std::string dispatch(const HttpRequest& req, int& status,
                       std::string& content_type);
  std::string route_attack_train(const HttpRequest& req, int& status);
  std::string route_attack_status(const HttpRequest& req, int& status);
  /// POST /infer: look the model up without blocking; park on a miss.
  void route_infer(int fd, HttpRequest req);
  /// Queue one model build per key on the pool; the request waits for it.
  void park(ModelKey key, int fd, std::string body, Clock::time_point t0);
  /// The body's rows, once the model is resident: a group member, its own
  /// forward, or a pool task when the body is too large for the loop.
  void route_rows(int fd, std::string body,
                  std::shared_ptr<const ServedModel> model,
                  Clock::time_point t0);
  /// Parse `body` into `g` as one member; the 400 answer if malformed.
  std::string parse_group(int fd, const std::string& body,
                          Clock::time_point t0, Group& g);
  /// Forward this round's groups: small ones here, large ones on the pool.
  void run_groups();
  /// Hand a large single-row group to the pool, joining a queued one.
  void submit_group(Group group);
  /// Forward `g` and format one answer per member (on any thread).
  Replies answer_group(const Group& g);
  /// A formatted response; counts 4xx answers.
  std::string respond(int status, const std::string& content_type,
                      const std::string& body);
  /// Make `response` the idle-again connection's output and send what the
  /// socket takes now. `pooled`: a pool task formatted it.
  void deliver(int fd, std::string response, bool pooled = false);
  /// Send without blocking; a gone peer marks the connection dead.
  void flush(int fd, Conn& conn);
  /// Pool side: run `done` on the loop thread in its next round.
  void post(std::function<void()> done);
  void wake_loop();

  ServeOptions opts_;
  ServeMetrics metrics_;
  core::Zoo zoo_;
  ModelCache cache_;
  Coalescer coalescer_;
  JobRegistry jobs_;
  std::unique_ptr<ThreadPool> pool_;

  int listen_fd_ = -1;
  int wake_r_ = -1;  ///< self-pipe: pool tasks/stop() poke the poll loop
  int wake_w_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  bool started_ = false;
  bool stopped_ = false;

  std::mutex done_m_;
  std::condition_variable done_cv_;
  bool loop_exited_ = false;

  std::mutex posted_m_;
  std::vector<std::function<void()>> posted_;  ///< pool results for the loop

  // Owned by the loop thread only.
  std::map<int, Conn> conns_;
  std::map<const ServedModel*, Group> round_;  ///< this round's row groups
  std::vector<Group> ready_;  ///< full groups and multi-row bodies
  std::map<const ServedModel*, std::shared_ptr<QueuedGroup>> queued_;
  std::map<ModelKey, std::vector<Parked>> parked_;
  bool again_ = false;  ///< a connection holds requests to parse: no wait
};

}  // namespace imap::serve
