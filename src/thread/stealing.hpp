#pragma once

/// \file stealing.hpp
/// \brief Work-stealing deque and pool — the Work Stealing catalog pattern.
///
/// The plain Pool (pool.hpp) feeds every worker from one shared queue: a
/// single lock that all workers contend on. The work-stealing design gives
/// each worker its own deque — it pushes and pops at the bottom (LIFO, hot
/// in cache) and idle workers steal from the *top* of a victim's deque
/// (FIFO, the oldest and typically largest work). The micro benches compare
/// the two under fine-grained load (central lock contention vs occasional
/// steals).
///
/// The deque here is mutex-per-deque rather than the lock-free Chase-Lev
/// design: contention on one deque is owner + occasional thieves, so a
/// mutex is cheap, and the teaching point — topology of queues, not the
/// memory-ordering heroics — stays in front.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "core/error.hpp"
#include "thread/hosts.hpp"

namespace pml::thread {

/// One worker's double-ended work queue.
class WorkDeque {
 public:
  using Task = std::function<void()>;

  /// Owner pushes new work at the bottom.
  void push_bottom(Task task) {
    std::lock_guard lock(mu_);
    items_.push_back(std::move(task));
  }

  /// Owner pops its most recent work (LIFO) — cache-warm depth-first.
  std::optional<Task> pop_bottom() {
    std::lock_guard lock(mu_);
    if (items_.empty()) return std::nullopt;
    Task t = std::move(items_.back());
    items_.pop_back();
    return t;
  }

  /// A thief steals the oldest work (FIFO) — breadth-first, biggest grains.
  std::optional<Task> steal_top() {
    std::lock_guard lock(mu_);
    if (items_.empty()) return std::nullopt;
    Task t = std::move(items_.front());
    items_.pop_front();
    return t;
  }

  std::size_t size() const {
    std::lock_guard lock(mu_);
    return items_.size();
  }

 private:
  mutable std::mutex mu_;
  std::deque<Task> items_;
};

/// A fixed-size pool where each worker owns a deque and steals when idle.
class StealingPool {
 public:
  using Task = std::function<void()>;

  explicit StealingPool(int workers);
  ~StealingPool();

  StealingPool(const StealingPool&) = delete;
  StealingPool& operator=(const StealingPool&) = delete;

  /// Enqueues a task onto a worker's deque round-robin (external submit).
  /// Tasks submitted from *inside* a worker go to that worker's own deque
  /// (the depth-first push that makes stealing effective).
  void submit(Task task);

  /// Blocks until every deque is empty and every worker is idle; rethrows
  /// the first task exception, if any.
  void wait_idle();

  /// Stops accepting work, drains, joins. Idempotent; destructor calls it.
  void shutdown();

  int workers() const noexcept { return static_cast<int>(threads_.size()); }

  /// Tasks executed per worker (index = worker id).
  std::vector<long> executed_per_worker() const;

  /// Successful steals per worker — the observable signature of the
  /// pattern (a central-queue pool has no equivalent).
  std::vector<long> steals_per_worker() const;

 private:
  void worker_loop(int id);
  void worker_body(int id);
  std::optional<Task> find_work(int id);
  /// Id of the calling thread within *this* pool, or -1 for outsiders.
  int calling_worker() const;

  std::vector<std::unique_ptr<WorkDeque>> deques_;
  mutable std::mutex mu_;  // guards counters, idle bookkeeping, error
  std::mutex nap_mu_;      // shared by all work_cv_ waiters (CV contract)
  std::condition_variable idle_cv_;
  std::condition_variable work_cv_;
  std::vector<long> executed_;
  std::vector<long> steals_;
  std::exception_ptr first_error_;
  std::atomic<long> in_flight_{0};  // queued + executing
  std::atomic<long> next_victim_{0};
  std::atomic<bool> stopping_{false};
  /// Bumped on every submit. A worker records the epoch before its steal
  /// sweep and naps only while it is unchanged, closing the missed-wakeup
  /// window between a failed sweep and the wait (work pushed in that gap
  /// flips the epoch, so the nap predicate is already true).
  std::atomic<std::uint64_t> work_epoch_{0};
  /// Workers currently napping on work_cv_ (for the busy-worker handoff).
  std::atomic<int> nappers_{0};
  std::vector<HostThread> threads_;
};

}  // namespace pml::thread
