#pragma once

/// \file thread.hpp
/// \brief Pthreads-style explicit thread creation and joining.
///
/// The Pthreads patternlets teach the *explicit* threading model:
/// `pthread_create` a worker with an id argument, do work, `pthread_join`.
/// pml::thread::Thread reproduces that model on a pooled host thread
/// (hosts.hpp) with RAII: a Thread must be joined (or the destructor joins
/// it), and each thread carries the small-integer id the patternlets print.

#include <functional>
#include <memory>
#include <utility>

#include "core/error.hpp"
#include "thread/hosts.hpp"

namespace pml::thread {

/// A joinable worker thread with an explicit integer id.
///
/// Unlike a raw C++ thread object, destruction of a still-joinable Thread
/// joins it rather than terminating the program: in teaching code, "forgot
/// to join" should behave like fork-join, not call std::terminate. A body
/// that throws still ends the program, as an uncaught exception on any
/// thread does. Creation and join are happens-before edges, as
/// pthread_create and pthread_join are.
class Thread {
 public:
  Thread() = default;

  /// Starts a worker running fn(id) as a group of one. The group lives on
  /// the heap: its address is the worker's verifier token and analyzer
  /// keys, which must survive moves of the Thread object.
  Thread(int id, std::function<void(int)> fn)
      : id_(id), group_(std::make_unique<TaskGroup>(1, 1)) {
    group_->start(0, [fn = std::move(fn), id] { fn(id); });
  }

  Thread(Thread&&) noexcept = default;
  /// Joins the current worker first, as std::jthread does.
  Thread& operator=(Thread&&) noexcept = default;

  Thread(const Thread&) = delete;
  Thread& operator=(const Thread&) = delete;

  /// The id this thread was created with (-1 if default-constructed).
  int id() const noexcept { return id_; }

  /// True if the thread is running and not yet joined.
  bool joinable() const noexcept { return group_ != nullptr; }

  /// Blocks until the worker finishes. Idempotent. Under cooperative
  /// verification the wait itself is a scheduling decision; the real join
  /// afterwards is instantaneous.
  void join() { group_.reset(); }

 private:
  int id_ = -1;
  std::unique_ptr<TaskGroup> group_;  ///< Its destructor joins.
};

/// Creates \p n workers running fn(0) .. fn(n-1), fork-join style.
/// Returns after all workers complete. Exceptions from workers are
/// re-thrown in the caller (the first one, by id order).
void fork_join(int n, const std::function<void(int)>& fn);

/// Like fork_join, but the caller participates as id 0 and only n-1
/// workers are spawned — the model OpenMP uses for its thread team.
void fork_join_inline(int n, const std::function<void(int)>& fn);

}  // namespace pml::thread
