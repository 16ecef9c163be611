#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>
#include <vector>

namespace ab {
namespace {

TEST(ThreadPool, SingleThreadRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1);
  std::vector<int> hits(100, 0);
  pool.parallel_for(100, [&](std::int64_t i) { hits[i] = 1; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 100);
}

TEST(ThreadPool, EveryIndexVisitedExactlyOnce) {
  ThreadPool pool(4);
  const std::int64_t n = 100000;
  std::vector<std::atomic<int>> hits(n);
  pool.parallel_for(n, [&](std::int64_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::int64_t i = 0; i < n; ++i)
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, ReusableAcrossInvocations) {
  ThreadPool pool(3);
  for (int round = 0; round < 50; ++round) {
    std::atomic<std::int64_t> sum{0};
    pool.parallel_for(257, [&](std::int64_t i) {
      sum.fetch_add(i, std::memory_order_relaxed);
    });
    EXPECT_EQ(sum.load(), 257 * 256 / 2);
  }
}

TEST(ThreadPool, EmptyAndTinyRanges) {
  ThreadPool pool(4);
  int count = 0;
  pool.parallel_for(0, [&](std::int64_t) { ++count; });
  EXPECT_EQ(count, 0);
  pool.parallel_for(1, [&](std::int64_t) { ++count; });
  EXPECT_EQ(count, 1);
}

TEST(ThreadPool, ActuallyUsesMultipleThreads) {
  ThreadPool pool(4);
  std::atomic<int> concurrent{0};
  std::atomic<int> peak{0};
  pool.parallel_for(4096, [&](std::int64_t) {
    int c = concurrent.fetch_add(1) + 1;
    int p = peak.load();
    while (c > p && !peak.compare_exchange_weak(p, c)) {
    }
    // A short spin so overlaps are observable even on one core with
    // preemption; no sleeps (keeps the test fast).
    volatile int x = 0;
    for (int i = 0; i < 500; ++i) x = x + i;
    concurrent.fetch_sub(1);
  });
  // On a single-core machine the scheduler may serialize everything; just
  // require that the pool completed and never exceeded its size.
  EXPECT_LE(peak.load(), 4);
  EXPECT_GE(peak.load(), 1);
}

TEST(ThreadPool, ParallelForRunsIndicesConcurrently) {
  // Rendezvous: indices 0 and 1 each wait (bounded) for the other to
  // start. A loop that runs every index on one thread leaves index 0
  // waiting alone until its deadline, so this fails instead of hanging.
  // The loop has more indices than kSerialCutoff so the pool really fans
  // out, and few enough that each claim is a single index.
  ThreadPool pool(4);
  constexpr std::int64_t kN = 4 * ThreadPool::kSerialCutoff;
  std::atomic<int> arrived{0};
  std::thread::id who[2];
  bool met[2] = {false, false};
  pool.parallel_for(kN, [&](std::int64_t i) {
    if (i >= 2) return;
    who[i] = std::this_thread::get_id();
    arrived.fetch_add(1);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (arrived.load() < 2 && std::chrono::steady_clock::now() < deadline)
      std::this_thread::yield();
    met[i] = arrived.load() >= 2;
  });
  EXPECT_TRUE(met[0]) << "index 0 never saw index 1 start";
  EXPECT_TRUE(met[1]) << "index 1 never saw index 0 start";
  EXPECT_NE(who[0], who[1]);
}

TEST(ThreadPool, RejectsZeroThreads) { EXPECT_THROW(ThreadPool(0), Error); }

TEST(ThreadPool, LargeChunkingStillCoversAll) {
  ThreadPool pool(8);
  const std::int64_t n = 7;  // fewer items than threads
  std::vector<std::atomic<int>> hits(n);
  pool.parallel_for(n, [&](std::int64_t i) { hits[i].fetch_add(1); });
  for (std::int64_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPool, BackToBackLoopsUnderOversubscription) {
  // Three pools of 4 driven at once oversubscribe the cores, so a worker
  // is often preempted between waking for one loop and claiming work. It
  // must never run an index of the caller's next loop through the
  // previous loop's (dead) body: every index of every loop runs once.
  std::atomic<int> bad{0};
  auto drive = [&bad] {
    ThreadPool pool(4);
    for (int c = 0; c < 20000; ++c) {
      std::atomic<int> hits[8] = {};
      pool.parallel_for(8, [&hits](std::int64_t i) { hits[i].fetch_add(1); });
      for (const auto& h : hits)
        if (h.load() != 1) bad.fetch_add(1);
    }
  };
  std::thread a(drive), b(drive), c(drive);
  a.join();
  b.join();
  c.join();
  EXPECT_EQ(bad.load(), 0);
}

}  // namespace
}  // namespace ab
