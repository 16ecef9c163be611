// A dependency-counting task scheduler over the ThreadPool.
//
// The AMR driver's phases (ghost fill, boundary conditions, block updates)
// are bulk-synchronous when expressed as back-to-back parallel_for calls:
// every block waits for the slowest ghost op even though its own stencil
// only needs its own ghost ring. A TaskGraph replaces those global barriers
// with per-task dependency counts: each task carries an atomic
// remaining-dependencies counter; when it drops to zero the task enters a
// lock-free ready queue drained by ThreadPool::parallel_for with one task
// per claimed index. Interior block updates (which read no ghosts) start
// immediately and overlap with the ghost exchange that gates only the rim.
//
// The graph is built once per forest topology and re-run every stage:
// counters are reset at the top of run(), and task bodies read their
// per-run parameters (stores, dt, time) through state captured by
// reference. Execution order is nondeterministic across threads, but every
// scheduled workload writes disjoint memory regions, so results are bitwise
// independent of the schedule — the serial fallback (no pool, or a
// one-thread pool) runs tasks in deterministic FIFO order and doubles as
// the cycle detector.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <thread>
#include <utility>
#include <vector>

#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace ab {

class TaskGraph {
 public:
  using TaskId = int;

  /// Add a task; returns its id. Bodies must be safe to run concurrently
  /// with every task they are not ordered against, and must not throw.
  TaskId add(std::function<void()> fn) {
    tasks_.push_back(Task{std::move(fn), {}, 0});
    return static_cast<TaskId>(tasks_.size()) - 1;
  }

  /// Declare that `after` may only start once `before` finished. Duplicate
  /// edges are allowed (the counts stay symmetric); self-edges are not.
  void depends(TaskId after, TaskId before) {
    AB_REQUIRE(after >= 0 && after < size() && before >= 0 &&
                   before < size() && after != before,
               "TaskGraph::depends: bad task id");
    tasks_[static_cast<std::size_t>(before)].successors.push_back(after);
    ++tasks_[static_cast<std::size_t>(after)].num_deps;
  }

  int size() const { return static_cast<int>(tasks_.size()); }
  bool empty() const { return tasks_.empty(); }

  /// Attach a tracer: every run() records one span per task (name `label`,
  /// category "task") and one span per ready-queue stall — the time a
  /// claimant waited on an unfilled ready slot (name "ready_stall",
  /// category "stall"). Null (the default) or a disabled tracer costs one
  /// pointer/flag test per run; task bodies execute untimed.
  void set_tracer(obs::Tracer* tracer, const char* label = "task") {
    tracer_ = tracer;
    trace_label_ = label;
  }

  /// Parent-link every span the next run() records to `span` (0 — the
  /// default — restores anonymous spans). The owner sets this from the
  /// enclosing phase span each stage, so tasks run on pool workers stay
  /// attached to the phase that spawned them in the causal trace. Set it
  /// before run() from the stepping thread only.
  void set_parent_span(std::uint64_t span) { parent_span_ = span; }

  void clear() {
    tasks_.clear();
    remaining_.clear();
    slots_.clear();
  }

  /// Execute every task, respecting dependencies; returns when all have
  /// finished. Reusable: counters are reset on entry. With a pool of two or
  /// more threads, ready tasks are claimed via a lock-free ring; otherwise
  /// tasks run inline in deterministic FIFO order (and a dependency cycle
  /// is reported instead of deadlocking).
  void run(ThreadPool* pool) {
    const int n = size();
    if (n == 0) return;
    if (static_cast<int>(remaining_.size()) != n)
      remaining_ = std::vector<std::atomic<int>>(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
      remaining_[static_cast<std::size_t>(i)].store(
          tasks_[static_cast<std::size_t>(i)].num_deps,
          std::memory_order_relaxed);

    obs::Tracer* const tr =
        (tracer_ != nullptr && tracer_->enabled()) ? tracer_ : nullptr;

    if (pool == nullptr || pool->size() == 1) {
      run_serial(tr);
      return;
    }

    // Ready ring: the k-th push publishes into slot k, the claimant of
    // parallel_for index k waits (a short yield spin, then an atomic wait
    // so oversubscribed claimants sleep instead of burning cycles) until
    // that slot is filled.
    // Total pushes equal total tasks, and the task that fills slot k always
    // ran from a slot j < k (its push is the (k+1)-th), so every wait chain
    // points strictly backward and the drain cannot deadlock on a DAG.
    if (static_cast<int>(slots_.size()) != n)
      slots_ = std::vector<std::atomic<int>>(static_cast<std::size_t>(n));
    for (auto& s : slots_) s.store(-1, std::memory_order_relaxed);
    std::atomic<int> pushed{0};
    auto push = [&](int id) {
      const int k = pushed.fetch_add(1, std::memory_order_relaxed);
      std::atomic<int>& slot = slots_[static_cast<std::size_t>(k)];
      slot.store(id, std::memory_order_release);
      slot.notify_one();
    };
    int roots = 0;
    for (int i = 0; i < n; ++i)
      if (tasks_[static_cast<std::size_t>(i)].num_deps == 0) {
        push(i);
        ++roots;
      }
    AB_REQUIRE(roots > 0, "TaskGraph::run: no root tasks (dependency cycle)");
    pool->parallel_for(
        n,
        [&](std::int64_t k) {
          std::atomic<int>& slot = slots_[static_cast<std::size_t>(k)];
          int id = slot.load(std::memory_order_acquire);
          if (id < 0) {
            const std::int64_t w0 = tr != nullptr ? tr->now_ns() : 0;
            for (int spin = 0; id < 0 && spin < 32; ++spin) {
              std::this_thread::yield();
              id = slot.load(std::memory_order_acquire);
            }
            while (id < 0) {
              slot.wait(-1, std::memory_order_acquire);  // futex, not a spin
              id = slot.load(std::memory_order_acquire);
            }
            if (tr != nullptr)
              record_span(tr, "ready_stall", "stall", w0);
          }
          Task& t = tasks_[static_cast<std::size_t>(id)];
          if (tr != nullptr) {
            const std::int64_t t0 = tr->now_ns();
            t.fn();
            record_span(tr, trace_label_, "task", t0);
          } else {
            t.fn();
          }
          for (int s : t.successors)
            if (remaining_[static_cast<std::size_t>(s)].fetch_sub(
                    1, std::memory_order_acq_rel) == 1)
              push(s);
        },
        /*chunk=*/1);
  }

 private:
  struct Task {
    std::function<void()> fn;
    std::vector<int> successors;
    int num_deps = 0;
  };

  void run_serial(obs::Tracer* tr) {
    const int n = size();
    std::vector<int> queue;
    queue.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
      if (tasks_[static_cast<std::size_t>(i)].num_deps == 0) queue.push_back(i);
    for (std::size_t qi = 0; qi < queue.size(); ++qi) {
      Task& t = tasks_[static_cast<std::size_t>(queue[qi])];
      if (tr != nullptr) {
        const std::int64_t t0 = tr->now_ns();
        t.fn();
        record_span(tr, trace_label_, "task", t0);
      } else {
        t.fn();
      }
      for (int s : t.successors)
        if (remaining_[static_cast<std::size_t>(s)].fetch_sub(
                1, std::memory_order_relaxed) == 1)
          queue.push_back(s);
    }
    AB_REQUIRE(static_cast<int>(queue.size()) == n,
               "TaskGraph::run: dependency cycle");
  }

  /// Close a span ending now: anonymous when no parent is set (the
  /// historical layout), causally tagged with a fresh id otherwise.
  /// parent_span_ is written before run() and only read during it, so
  /// worker threads race-freely share it.
  void record_span(obs::Tracer* tr, const char* name, const char* cat,
                   std::int64_t t0) {
    if (parent_span_ == 0) {
      tr->record(name, cat, t0, tr->now_ns());
      return;
    }
    tr->record(obs::TraceEvent{name, cat, t0, tr->now_ns(), 0,
                               tr->new_span_id(), parent_span_, -1, -1});
  }

  std::vector<Task> tasks_;
  std::vector<std::atomic<int>> remaining_;
  std::vector<std::atomic<int>> slots_;  // ready ring, one slot per task
  obs::Tracer* tracer_ = nullptr;
  const char* trace_label_ = "task";
  std::uint64_t parent_span_ = 0;
};

}  // namespace ab
