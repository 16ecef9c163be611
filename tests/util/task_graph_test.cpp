// TaskGraph: dependency-ordered execution, deterministic serial FIFO
// fallback, reuse across runs, cycle detection, and real concurrency of the
// threaded drain.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "util/task_graph.hpp"
#include "util/thread_pool.hpp"

namespace ab {
namespace {

TEST(TaskGraph, EmptyGraphRuns) {
  TaskGraph g;
  g.run(nullptr);
  EXPECT_EQ(g.size(), 0);
}

TEST(TaskGraph, SerialRunsInFifoOrder) {
  // Without a pool, ready tasks execute in the order they became ready:
  // roots in id order, successors in completion order.
  TaskGraph g;
  std::vector<int> order;
  const int a = g.add([&] { order.push_back(0); });
  const int b = g.add([&] { order.push_back(1); });
  const int c = g.add([&] { order.push_back(2); });
  const int d = g.add([&] { order.push_back(3); });
  g.depends(c, a);  // c after a
  g.depends(d, b);  // d after b
  g.run(nullptr);
  ASSERT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  (void)c;
  (void)d;
}

TEST(TaskGraph, DiamondRespectsDependencies) {
  ThreadPool pool(4);
  TaskGraph g;
  std::atomic<int> stage{0};
  std::atomic<bool> bad{false};
  const int top = g.add([&] { stage.store(1); });
  auto mid = [&] {
    if (stage.load() < 1) bad.store(true);
  };
  const int left = g.add(mid);
  const int right = g.add(mid);
  const int bottom = g.add([&] {
    if (stage.load() < 1) bad.store(true);
    stage.store(2);
  });
  g.depends(left, top);
  g.depends(right, top);
  g.depends(bottom, left);
  g.depends(bottom, right);
  g.run(&pool);
  EXPECT_FALSE(bad.load());
  EXPECT_EQ(stage.load(), 2);
}

TEST(TaskGraph, ChainExecutesInOrderThreaded) {
  ThreadPool pool(4);
  TaskGraph g;
  constexpr int kN = 64;
  std::vector<int> order;
  std::vector<int> ids;
  for (int i = 0; i < kN; ++i)
    ids.push_back(g.add([&order, i] { order.push_back(i); }));
  for (int i = 1; i < kN; ++i) g.depends(ids[i], ids[i - 1]);
  g.run(&pool);
  ASSERT_EQ(static_cast<int>(order.size()), kN);
  for (int i = 0; i < kN; ++i) EXPECT_EQ(order[i], i);
}

TEST(TaskGraph, ReusableAcrossRuns) {
  ThreadPool pool(3);
  TaskGraph g;
  std::atomic<int> count{0};
  const int a = g.add([&] { count.fetch_add(1); });
  const int b = g.add([&] { count.fetch_add(10); });
  g.depends(b, a);
  for (int r = 0; r < 5; ++r) g.run(&pool);
  g.run(nullptr);  // and once serially
  EXPECT_EQ(count.load(), 6 * 11);
}

TEST(TaskGraph, ManyRootsManyDepsStress) {
  // Layered random-ish DAG: every layer-k task depends on two layer-(k-1)
  // tasks; each checks its dependencies really finished.
  ThreadPool pool(4);
  TaskGraph g;
  constexpr int kLayers = 8, kWidth = 16;
  std::vector<std::vector<int>> id(kLayers, std::vector<int>(kWidth));
  static std::atomic<int> done[kLayers][kWidth];
  for (int l = 0; l < kLayers; ++l)
    for (int w = 0; w < kWidth; ++w) done[l][w].store(0);
  std::atomic<bool> bad{false};
  for (int l = 0; l < kLayers; ++l)
    for (int w = 0; w < kWidth; ++w) {
      id[l][w] = g.add([&bad, l, w] {
        if (l > 0) {
          if (done[l - 1][w].load() == 0) bad.store(true);
          if (done[l - 1][(w * 7 + 3) % kWidth].load() == 0) bad.store(true);
        }
        done[l][w].store(1);
      });
      if (l > 0) {
        g.depends(id[l][w], id[l - 1][w]);
        g.depends(id[l][w], id[l - 1][(w * 7 + 3) % kWidth]);
      }
    }
  for (int r = 0; r < 3; ++r) {
    for (int l = 0; l < kLayers; ++l)
      for (int w = 0; w < kWidth; ++w) done[l][w].store(0);
    g.run(&pool);
    EXPECT_FALSE(bad.load());
    for (int l = 0; l < kLayers; ++l)
      for (int w = 0; w < kWidth; ++w) EXPECT_EQ(done[l][w].load(), 1);
  }
}

TEST(TaskGraph, SerialDetectsCycle) {
  TaskGraph g;
  const int a = g.add([] {});
  const int b = g.add([] {});
  const int c = g.add([] {});
  g.depends(b, a);
  g.depends(a, b);
  g.depends(c, a);
  EXPECT_THROW(g.run(nullptr), Error);
}

TEST(TaskGraph, RejectsBadDependencyIds) {
  TaskGraph g;
  const int a = g.add([] {});
  EXPECT_THROW(g.depends(a, a), Error);
  EXPECT_THROW(g.depends(a, 7), Error);
  EXPECT_THROW(g.depends(-1, a), Error);
}

TEST(TaskGraph, ThreadedDrainRunsTasksConcurrently) {
  // Rendezvous: two independent tasks each wait (bounded) for the other to
  // start. A drain that runs every task on one thread leaves the first one
  // waiting alone until its deadline, so this fails instead of hanging.
  // The graph has more tasks than kSerialCutoff so the pool really fans
  // the drain out.
  ThreadPool pool(4);
  TaskGraph g;
  constexpr int kN = 4 * static_cast<int>(ThreadPool::kSerialCutoff);
  std::atomic<int> arrived{0};
  std::thread::id who[2];
  bool met[2] = {false, false};
  auto meet = [&](int k) {
    who[k] = std::this_thread::get_id();
    arrived.fetch_add(1);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (arrived.load() < 2 && std::chrono::steady_clock::now() < deadline)
      std::this_thread::yield();
    met[k] = arrived.load() >= 2;
  };
  g.add([&] { meet(0); });
  g.add([&] { meet(1); });
  for (int i = 2; i < kN; ++i) g.add([] {});
  g.run(&pool);
  EXPECT_TRUE(met[0]) << "task 0 never saw task 1 start";
  EXPECT_TRUE(met[1]) << "task 1 never saw task 0 start";
  EXPECT_NE(who[0], who[1]);
}

}  // namespace
}  // namespace ab
