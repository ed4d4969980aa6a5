#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "common/thread_pool.h"

namespace imap {
namespace {

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  ScopedPool scope(pool);
  constexpr std::size_t n = 10'000;
  std::vector<std::atomic<int>> hits(n);
  parallel_for(n, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPool, ChunkedFormCoversDisjointRanges) {
  ThreadPool pool(4);
  ScopedPool scope(pool);
  constexpr std::size_t n = 1237;  // deliberately not a multiple of anything
  std::vector<std::atomic<int>> hits(n);
  parallel_for_chunked(n, 16, [&](std::size_t b, std::size_t e) {
    ASSERT_LE(b, e);
    ASSERT_LE(e, n);
    for (std::size_t i = b; i < e; ++i)
      hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPool, ResultsIdenticalToSerialLoop) {
  std::vector<double> serial(513), pooled(513);
  for (std::size_t i = 0; i < serial.size(); ++i)
    serial[i] = static_cast<double>(i) * 1.5 - 3.0;
  {
    ThreadPool pool(4);
    ScopedPool scope(pool);
    parallel_for(pooled.size(), [&](std::size_t i) {
      pooled[i] = static_cast<double>(i) * 1.5 - 3.0;
    });
  }
  EXPECT_EQ(serial, pooled);
}

TEST(ThreadPool, ExceptionsPropagateToCaller) {
  ThreadPool pool(4);
  ScopedPool scope(pool);
  EXPECT_THROW(
      parallel_for(
          1000,
          [&](std::size_t i) {
            if (i == 617) throw std::runtime_error("boom");
          },
          /*grain=*/1),
      std::runtime_error);
  // The pool must still be usable after an exception.
  std::atomic<std::size_t> count{0};
  parallel_for(100, [&](std::size_t) {
    count.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(count.load(), 100u);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(4);
  ScopedPool scope(pool);
  constexpr std::size_t outer = 16, inner = 64;
  std::vector<std::atomic<std::size_t>> sums(outer);
  parallel_for(
      outer,
      [&](std::size_t o) {
        parallel_for(inner, [&, o](std::size_t i) {
          sums[o].fetch_add(i, std::memory_order_relaxed);
        });
      },
      /*grain=*/1);
  const std::size_t expect = inner * (inner - 1) / 2;
  for (std::size_t o = 0; o < outer; ++o) EXPECT_EQ(sums[o].load(), expect);
}

TEST(ThreadPool, ScopedSerialForcesInlineExecution) {
  ThreadPool pool(4);
  ScopedPool scope(pool);
  EXPECT_EQ(effective_concurrency(), 4u);
  {
    ScopedSerial serial;
    EXPECT_EQ(effective_concurrency(), 1u);
    // Under ScopedSerial a parallel_for must run on the calling thread only.
    const auto self = std::this_thread::get_id();
    parallel_for(256, [&](std::size_t) {
      EXPECT_EQ(std::this_thread::get_id(), self);
    });
  }
  EXPECT_EQ(effective_concurrency(), 4u);
}

TEST(ThreadPool, SingleThreadPoolRunsInline) {
  ThreadPool pool(1);
  ScopedPool scope(pool);
  const auto self = std::this_thread::get_id();
  parallel_for(64, [&](std::size_t) {
    EXPECT_EQ(std::this_thread::get_id(), self);
  });
}

TEST(ThreadPool, ConfiguredThreadsReadsEnvironment) {
  // Only exercised when the var is unset by the test harness: the fallback
  // must be at least 1.
  EXPECT_GE(ThreadPool::configured_threads(), 1u);
}

TEST(ThreadPool, EmptyRangeIsANoop) {
  ThreadPool pool(4);
  ScopedPool scope(pool);
  bool ran = false;
  parallel_for(0, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, IdlePoolStartsEverySingleSubmitWithoutHelp) {
  // One task at a time into an idle two-thread pool, and the caller never
  // helps: only the worker's wake-up can start each task. A lost wake-up
  // leaves the task unstarted until the next submit, which here never comes,
  // so the bounded wait turns it into a failure instead of a stall.
  constexpr int kTasks = 50'000;
  std::mutex m;
  std::condition_variable cv;
  int started = 0;
  int stuck_at = -1;
  ThreadPool pool(2);  // destroyed first: a stuck task still finds m and cv
  for (int i = 0; i < kTasks && stuck_at < 0; ++i) {
    pool.submit([&] {
      {
        std::lock_guard<std::mutex> lk(m);
        ++started;
      }
      cv.notify_one();
    });
    std::unique_lock<std::mutex> lk(m);
    if (!cv.wait_for(lk, std::chrono::seconds(5),
                     [&] { return started == i + 1; }))
      stuck_at = i;
  }
  EXPECT_EQ(stuck_at, -1) << "task " << stuck_at << " of " << kTasks
                          << " did not start within 5 s";
}

}  // namespace
}  // namespace imap
