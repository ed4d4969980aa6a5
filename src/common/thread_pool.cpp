#include "common/thread_pool.h"

#include <chrono>
#include <cstdlib>
#include <exception>
#include <memory>
#include <utility>

namespace imap {

namespace {

// Per-thread dispatch state. Pool workers install themselves as the default
// target so nested parallel regions drain on the pool that spawned them.
thread_local int t_serial_depth = 0;
thread_local ThreadPool* t_pool_override = nullptr;

}  // namespace

ThreadPool::ThreadPool(std::size_t concurrency)
    : concurrency_(concurrency == 0 ? 1 : concurrency) {
  deques_.reserve(concurrency_);
  for (std::size_t i = 0; i < concurrency_; ++i)
    deques_.push_back(std::make_unique<Deque>());
  // The submitting/waiting thread is participant 0; spawn the rest.
  workers_.reserve(concurrency_ - 1);
  for (std::size_t i = 1; i < concurrency_; ++i)
    workers_.emplace_back([this, i] { worker_loop(i); });
}

ThreadPool::~ThreadPool() {
  stop_.store(true);
  {
    std::lock_guard<std::mutex> lk(sleep_m_);
  }
  sleep_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  const std::size_t idx =
      next_.fetch_add(1, std::memory_order_relaxed) % concurrency_;
  {
    std::lock_guard<std::mutex> lk(deques_[idx]->m);
    deques_[idx]->q.push_back(std::move(task));
  }
  pending_.fetch_add(1, std::memory_order_release);
  // Pass through sleep_m_ before notifying: a worker that saw pending_ == 0
  // under the lock is then already blocked in wait() and gets the wake-up,
  // instead of missing it between its predicate check and its wait.
  {
    std::lock_guard<std::mutex> lk(sleep_m_);
  }
  sleep_cv_.notify_one();
}

bool ThreadPool::pop_from(std::size_t idx, std::function<void()>& task,
                          bool steal) {
  Deque& d = *deques_[idx];
  std::lock_guard<std::mutex> lk(d.m);
  if (d.q.empty()) return false;
  if (steal) {
    task = std::move(d.q.back());
    d.q.pop_back();
  } else {
    task = std::move(d.q.front());
    d.q.pop_front();
  }
  pending_.fetch_sub(1, std::memory_order_relaxed);
  return true;
}

bool ThreadPool::try_run_one() {
  std::function<void()> task;
  for (std::size_t i = 0; i < concurrency_; ++i) {
    if (pop_from(i, task, /*steal=*/i != 0)) {
      task();
      return true;
    }
  }
  return false;
}

void ThreadPool::worker_loop(std::size_t self) {
  t_pool_override = this;
  std::function<void()> task;
  while (true) {
    bool ran = false;
    // Own deque first (FIFO keeps chunk order roughly sequential), then
    // steal from the busiest-looking victims in index order.
    if (pop_from(self, task, /*steal=*/false)) {
      ran = true;
    } else {
      for (std::size_t off = 1; off < concurrency_ && !ran; ++off)
        ran = pop_from((self + off) % concurrency_, task, /*steal=*/true);
    }
    if (ran) {
      task();
      task = nullptr;
      continue;
    }
    std::unique_lock<std::mutex> lk(sleep_m_);
    sleep_cv_.wait(lk, [&] {
      return stop_.load(std::memory_order_acquire) ||
             pending_.load(std::memory_order_acquire) > 0;
    });
    if (stop_.load(std::memory_order_acquire) &&
        pending_.load(std::memory_order_acquire) == 0)
      return;
  }
}

std::size_t ThreadPool::configured_threads() {
  const char* v = std::getenv("IMAP_THREADS");
  if (v && *v) {
    char* end = nullptr;
    const long parsed = std::strtol(v, &end, 10);
    if (end != v && parsed > 0) return static_cast<std::size_t>(parsed);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool(configured_threads());
  return pool;
}

ScopedSerial::ScopedSerial() { ++t_serial_depth; }
ScopedSerial::~ScopedSerial() { --t_serial_depth; }

ScopedPool::ScopedPool(ThreadPool& pool) : prev_(t_pool_override) {
  t_pool_override = &pool;
}
ScopedPool::~ScopedPool() { t_pool_override = prev_; }

std::size_t effective_concurrency() {
  if (t_serial_depth > 0) return 1;
  return t_pool_override ? t_pool_override->size()
                         : ThreadPool::configured_threads();
}

namespace {

/// Completion latch shared by one parallel_for call's tasks.
struct ForLatch {
  std::atomic<std::size_t> remaining;
  std::mutex m;
  std::condition_variable cv;
  std::mutex err_m;
  std::exception_ptr err;
};

void run_range(const std::function<void(std::size_t, std::size_t)>& body,
               std::size_t b, std::size_t e, ForLatch& latch) {
  try {
    body(b, e);
  } catch (...) {
    std::lock_guard<std::mutex> lk(latch.err_m);
    if (!latch.err) latch.err = std::current_exception();
  }
  if (latch.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    std::lock_guard<std::mutex> lk(latch.m);
    latch.cv.notify_all();
  }
}

}  // namespace

void parallel_for_chunked(
    std::size_t n, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)>& body) {
  if (n == 0) return;
  ThreadPool* pool = t_pool_override ? t_pool_override : &ThreadPool::global();
  if (t_serial_depth > 0 || pool->size() <= 1 || n <= 1) {
    body(0, n);
    return;
  }
  if (grain == 0) grain = std::max<std::size_t>(1, n / (pool->size() * 4));
  const std::size_t nchunks =
      std::min((n + grain - 1) / grain, std::max<std::size_t>(1, n));
  if (nchunks <= 1) {
    body(0, n);
    return;
  }

  auto latch = std::make_shared<ForLatch>();
  latch->remaining.store(nchunks, std::memory_order_relaxed);
  // Chunk i covers [i·n/nchunks, (i+1)·n/nchunks): a fixed, gap-free split.
  for (std::size_t i = 1; i < nchunks; ++i) {
    const std::size_t b = i * n / nchunks;
    const std::size_t e = (i + 1) * n / nchunks;
    pool->submit([&body, b, e, latch] { run_range(body, b, e, *latch); });
  }
  // The caller takes the first chunk, then helps drain the pool while the
  // rest finish — this is also what keeps nested parallel_for deadlock-free.
  // The latch wait re-checks every 1 ms: nothing signals the latch when
  // some other thread submits a task, so the re-check is how a waiting
  // caller finds, and helps with, work queued after it started waiting.
  run_range(body, 0, n / nchunks, *latch);
  while (latch->remaining.load(std::memory_order_acquire) != 0) {
    if (pool->try_run_one()) continue;
    std::unique_lock<std::mutex> lk(latch->m);
    latch->cv.wait_for(lk, std::chrono::milliseconds(1), [&] {
      return latch->remaining.load(std::memory_order_acquire) == 0;
    });
  }
  if (latch->err) std::rethrow_exception(latch->err);
}

bool submit_detached(std::function<void()> task) {
  if (t_serial_depth > 0) return false;
  ThreadPool* pool = t_pool_override ? t_pool_override : &ThreadPool::global();
  if (pool->size() <= 1) return false;
  pool->submit(std::move(task));
  return true;
}

void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body,
                  std::size_t grain) {
  parallel_for_chunked(n, grain, [&body](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) body(i);
  });
}

}  // namespace imap
