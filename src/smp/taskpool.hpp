#pragma once

/// \file taskpool.hpp
/// \brief Team-shared explicit-task pool — the `#pragma omp task` substrate.
///
/// Tasks are deferred work units any team thread may execute. The pool
/// tracks both queued and executing tasks so quiescence ("no task queued or
/// running") is a waitable condition: `taskwait` and the team barrier are
/// task scheduling points, as in OpenMP — a thread arriving there helps
/// execute pending tasks until the pool is quiescent.

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <utility>

#include "analyze/analyze.hpp"
#include "core/error.hpp"
#include "obs/obs.hpp"
#include "thread/adaptive_wait.hpp"

namespace pml::smp::detail {

/// A FIFO pool of deferred tasks with quiescence tracking.
class TaskPool {
 public:
  using Task = std::function<void()>;

  /// Defers a task.
  void push(Task task) {
    if (analyze::active()) {
      // Dispatch edge: the spawning thread's prior writes happen-before the
      // task body, whichever team thread executes it.
      const std::uint64_t publish = analyze::on_task_publish();
      task = [publish, body = std::move(task)] {
        analyze::on_task_start(publish);
        body();
      };
    }
    {
      std::lock_guard lock(mu_);
      queue_.push_back(std::move(task));
      ++in_flight_;
    }
    // One new task can be claimed by exactly one helper, so wake exactly
    // one waiter. Every waiter sits in help_until_quiescent's wait on
    // `in_flight_ == 0 || !queue_.empty()`; the push makes the queue
    // non-empty, and the woken helper either drains it or, if it loses the
    // race for the task, finds in_flight_ still nonzero and waits again —
    // the quiescence half of the predicate cannot have been made true by a
    // push, so the waiters left asleep were not eligible to run.
    pml::thread::notify_one(changed_, this);
  }

  /// Pops one task if available; the caller MUST call finished() after
  /// executing it.
  std::optional<Task> try_pop() {
    std::lock_guard lock(mu_);
    if (queue_.empty()) return std::nullopt;
    Task t = std::move(queue_.front());
    queue_.pop_front();
    return t;
  }

  /// Marks one popped task as executed.
  void finished() {
    bool quiescent;
    {
      std::lock_guard lock(mu_);
      // Completion edge: the task's writes happen-before whoever observes
      // quiescence (taskwait / barrier).
      analyze::on_sync_release(this);
      quiescent = (--in_flight_ == 0);
    }
    // A completion can only satisfy the quiescence half of the wait
    // predicate (`in_flight_ == 0 || !queue_.empty()`), and only when the
    // count hits zero — it never adds claimable work. Reaching zero
    // releases *every* taskwait/barrier helper at once, so that (and only
    // that) is a broadcast; decrementing 5 -> 4 used to notify_all every
    // parked helper just so each could recheck and sleep again.
    if (quiescent) pml::thread::notify_all(changed_, this);
  }

  /// Pops and executes one pending task on the calling thread (tracking
  /// execution depth); returns false if nothing was queued. Never blocks —
  /// safe to call from *inside* a task (cooperative helping).
  bool try_execute_one() {
    auto task = try_pop();
    if (!task) return false;
    ++exec_depth();
    try {
      obs::SpanScope span{obs::SpanKind::kTask, "omp-task", exec_depth()};
      obs::count(obs::Counter::kTasksRun);
      (*task)();
    } catch (...) {
      --exec_depth();
      finished();
      throw;
    }
    --exec_depth();
    finished();
    return true;
  }

  /// Executes pending tasks on the calling thread until the pool is
  /// quiescent (nothing queued, nothing executing anywhere). This is the
  /// task-scheduling-point loop used by taskwait and the barrier.
  ///
  /// Must NOT be called from inside a task: team-wide quiescence includes
  /// the calling task itself, so the wait could never finish. Callers
  /// inside a task should loop on try_execute_one() against their own
  /// completion condition instead (see edu::parallel_merge_sort).
  void help_until_quiescent() {
    if (exec_depth() > 0) {
      throw pml::UsageError(
          "taskwait/barrier called from inside a task: team-wide quiescence "
          "would wait on the calling task itself; help with "
          "try_execute_one() instead");
    }
    for (;;) {
      if (try_execute_one()) continue;
      std::unique_lock lock(mu_);
      if (in_flight_ == 0) {
        analyze::on_sync_acquire(this);  // all completed tasks' writes visible
        return;
      }
      if (!queue_.empty()) continue;  // raced with a push; go help again
      // Tasks are executing on other threads (and may spawn more): wait
      // for the pool to change, then re-check.
      pml::thread::wait_on(changed_, lock, this,
                           [this] { return in_flight_ == 0 || !queue_.empty(); });
      if (in_flight_ == 0) {
        analyze::on_sync_acquire(this);
        return;
      }
    }
  }

  /// Queued-or-executing count (diagnostics).
  int in_flight() const {
    std::lock_guard lock(mu_);
    return in_flight_;
  }

 private:
  /// Nesting depth of task execution on the calling thread.
  static int& exec_depth() {
    thread_local int depth = 0;
    return depth;
  }

  mutable std::mutex mu_;
  std::condition_variable changed_;
  std::deque<Task> queue_;
  int in_flight_ = 0;  ///< queued + currently executing
};

}  // namespace pml::smp::detail
