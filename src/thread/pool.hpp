#pragma once

/// \file pool.hpp
/// \brief Task-queue thread pool — the Master-Worker substrate.
///
/// The Master-Worker patternlets need a pool: a master enqueues work items,
/// workers dequeue and execute them, and the master can wait for quiescence.
/// The pool records which worker executed each task so tests can assert the
/// load-distribution properties the pattern teaches.

#include <condition_variable>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <vector>

#include "core/error.hpp"
#include "thread/hosts.hpp"

namespace pml::thread {

/// A fixed-size pool of worker threads fed from one shared queue.
class Pool {
 public:
  /// Task body; receives the executing worker's id (0-based).
  using Task = std::function<void(int worker)>;

  explicit Pool(int workers);
  ~Pool();

  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  /// Enqueues a task. Throws RuntimeFault after shutdown() has begun.
  void submit(Task task);

  /// Blocks until the queue is empty and every worker is idle. If any task
  /// threw, rethrows the first such exception here (and clears it) — a
  /// throwing task must surface at the master, not kill a worker thread.
  void wait_idle();

  /// Stops accepting work, drains the queue, and joins the workers.
  /// Called automatically by the destructor.
  void shutdown();

  /// Number of worker threads.
  int workers() const noexcept { return static_cast<int>(threads_.size()); }

  /// Tasks executed per worker so far (index = worker id).
  std::vector<long> tasks_per_worker() const;

 private:
  void worker_loop(int id);
  void worker_body(int id);

  mutable std::mutex mu_;
  std::condition_variable work_ready_;
  std::condition_variable idle_;
  std::deque<Task> queue_;
  std::vector<long> executed_;
  std::exception_ptr first_error_;  ///< First exception thrown by a task.
  int active_ = 0;
  bool stopping_ = false;
  std::vector<HostThread> threads_;
};

}  // namespace pml::thread
