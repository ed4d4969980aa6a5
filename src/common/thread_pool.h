#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace imap {

/// Work-stealing thread pool behind every parallel code path in the library.
///
/// A pool of concurrency N owns N−1 worker threads; the thread that submits
/// work always participates, so `ThreadPool(1)` degenerates to fully inline
/// execution. Each worker drains its own deque first and steals from the
/// others when idle. Threads that wait on a batch of tasks (see
/// `parallel_for`) run pending tasks while they wait, which is what makes
/// *nested* parallel regions deadlock-free: an inner `parallel_for` issued
/// from a pool worker is simply drained by the threads already blocked on
/// the outer one.
///
/// Determinism contract: the pool itself never reorders *results* — every
/// parallel helper in this codebase assigns work to fixed index ranges and
/// merges per-range results in index order, so numeric output is identical
/// for any thread count (including the inline N=1 path).
class ThreadPool {
 public:
  explicit ThreadPool(std::size_t concurrency);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total concurrency (worker threads + the participating caller).
  std::size_t size() const { return concurrency_; }

  /// Enqueue one task on the next deque in round-robin order, whoever
  /// submits it. A worker pops its own deque FIFO and steals from the back
  /// of the others.
  void submit(std::function<void()> task);

  /// Run one pending task on the calling thread, if any. Returns false when
  /// every deque is empty.
  bool try_run_one();

  /// Process-wide pool, created on first use with `configured_threads()`.
  static ThreadPool& global();

  /// Thread count requested via the IMAP_THREADS environment variable;
  /// falls back to std::thread::hardware_concurrency() when unset.
  static std::size_t configured_threads();

 private:
  struct Deque {
    std::mutex m;
    std::deque<std::function<void()>> q;
  };

  void worker_loop(std::size_t self);
  bool pop_from(std::size_t idx, std::function<void()>& task, bool steal);

  std::size_t concurrency_;
  std::vector<std::unique_ptr<Deque>> deques_;
  std::vector<std::thread> workers_;
  std::mutex sleep_m_;
  std::condition_variable sleep_cv_;
  std::atomic<std::size_t> pending_{0};
  std::atomic<std::size_t> next_{0};
  std::atomic<bool> stop_{false};
};

/// Force every parallel helper in the current thread's scope to run inline
/// (the serial reference path). Used by benchmarks to time the serial
/// baseline and by tests to compare serial vs threaded execution bit-wise.
class ScopedSerial {
 public:
  ScopedSerial();
  ~ScopedSerial();
  ScopedSerial(const ScopedSerial&) = delete;
  ScopedSerial& operator=(const ScopedSerial&) = delete;
};

/// Route parallel helpers in the current thread's scope onto `pool` instead
/// of the global one. Lets tests exercise a real multi-thread pool
/// regardless of IMAP_THREADS or the machine's core count.
class ScopedPool {
 public:
  explicit ScopedPool(ThreadPool& pool);
  ~ScopedPool();
  ScopedPool(const ScopedPool&) = delete;
  ScopedPool& operator=(const ScopedPool&) = delete;

 private:
  ThreadPool* prev_;
};

/// Effective concurrency `parallel_for` would use right now on this thread
/// (1 under ScopedSerial; the override pool's size under ScopedPool).
std::size_t effective_concurrency();

/// Run body(i) for every i in [0, n), distributed over the pool. Blocks
/// until all indices completed; the calling thread participates. `grain` is
/// the minimum number of consecutive indices per task (0 = pick
/// automatically; pass 1 for heavy, uneven items such as bench grid cells).
/// The first exception thrown by any invocation is rethrown on the caller.
///
/// Safe to nest. Results must not depend on execution order across indices
/// — each index must write only its own outputs.
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body,
                  std::size_t grain = 0);

/// Chunked form: body(begin, end) over disjoint subranges covering [0, n).
/// Chunk boundaries depend only on `n`, `grain` and the *configured* pool
/// size — never on runtime scheduling.
void parallel_for_chunked(
    std::size_t n, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)>& body);

/// Queue `task` on the pool `parallel_for` would use right now and return
/// true, or return false without queuing it when that pool runs inline
/// (ScopedSerial, or one thread). Nothing waits for the task: whoever needs
/// its work done must be able to do it without the task starting, and the
/// task must stay valid whenever it starts.
bool submit_detached(std::function<void()> task);

}  // namespace imap
