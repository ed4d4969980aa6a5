#pragma once

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "common/config.h"
#include "common/thread_pool.h"
#include "core/experiment.h"
#include "serve/metrics.h"

namespace imap::serve {

/// Asynchronous IMAP attack-training jobs behind POST /attack/train.
///
/// A job is one AttackPlan: the runner thread builds a DagScheduler (victim
/// node → attack node) and runs the plan's cell exactly as the bench
/// binaries would, so a finished job lands in the shared result cache under
/// the same cache key, and re-submitting a finished plan returns instantly
/// from that cache. Per-cell file locks keep concurrent jobs — and external
/// bench runs — from colliding on the same artifacts.
///
/// Enqueue returns a job id immediately; GET /attack/status?id=N polls the
/// registry. The registry owns a small dedicated pool so a long training run
/// never starves the request-serving workers.
class JobRegistry {
 public:
  enum class State { Queued, Running, Done, Failed };

  /// `runners` is how many jobs may train concurrently.
  explicit JobRegistry(BenchConfig cfg, int runners = 1,
                       ServeMetrics* metrics = nullptr);
  ~JobRegistry();

  /// Enqueue a plan; returns its job id. Never blocks on training.
  std::uint64_t enqueue(const core::AttackPlan& plan);

  /// JSON status document for one job, or nullopt-equivalent "" when the id
  /// is unknown. Finished jobs carry the outcome (victim reward under
  /// attack, success rate, curve length).
  std::string status_json(std::uint64_t id) const;

  /// Block until every enqueued job left the Queued/Running states — the
  /// daemon's clean-shutdown barrier.
  void drain();

  std::size_t total() const;

 private:
  struct Job {
    core::AttackPlan plan;
    State state = State::Queued;
    std::string detail;  ///< outcome JSON (Done) or error text (Failed)
  };

  void run_job(std::uint64_t id);
  static std::string state_name(State s);

  BenchConfig cfg_;
  ServeMetrics* metrics_;
  mutable std::mutex m_;
  std::condition_variable cv_;
  std::map<std::uint64_t, Job> jobs_;
  std::uint64_t next_id_ = 1;
  std::size_t active_ = 0;
  std::unique_ptr<ThreadPool> pool_;  ///< dedicated job runners
};

}  // namespace imap::serve
