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
#include "sched/coop.hpp"
#include "thread/hosts.hpp"

namespace pml::thread {

/// A joinable worker thread with an explicit integer id.
///
/// Unlike a raw C++ thread object, destruction of a still-joinable Thread
/// joins it rather than terminating the program: in teaching code, "forgot
/// to join" should behave like fork-join, not call std::terminate. A body
/// that throws still ends the program, as an uncaught exception on any
/// thread does.
class Thread {
 public:
  Thread() = default;

  /// Starts a worker running fn(id). Under cooperative verification the
  /// worker registers as a scheduler lane; the registration token is a
  /// heap cookie (not `this`) so it survives moves of the Thread object.
  Thread(int id, std::function<void(int)> fn) : id_(id) {
    if (sched::coop_active()) {
      coop_token_ = std::make_unique<char>('\0');
      sched::coop_spawned(coop_token_.get(), 1, 1);
      impl_ = HostThread([fn = std::move(fn), id, tok = coop_token_.get()] {
        sched::coop_lane_begin(tok, 0);
        try {
          fn(id);
        } catch (const sched::CoopAbort&) {
          // Execution aborted by the verifier; unwind quietly.
        }
        sched::coop_lane_end(tok);
      });
    } else {
      impl_ = HostThread([fn = std::move(fn), id] { fn(id); });
    }
  }

  Thread(Thread&&) noexcept = default;
  Thread& operator=(Thread&& other) noexcept {
    if (this != &other) {
      join();
      id_ = other.id_;
      coop_token_ = std::move(other.coop_token_);
      impl_ = std::move(other.impl_);
    }
    return *this;
  }

  Thread(const Thread&) = delete;
  Thread& operator=(const Thread&) = delete;

  ~Thread() { join(); }

  /// The id this thread was created with (-1 if default-constructed).
  int id() const noexcept { return id_; }

  /// True if the thread is running and not yet joined.
  bool joinable() const noexcept { return impl_.joinable(); }

  /// Blocks until the worker finishes. Idempotent. Under cooperative
  /// verification the wait itself is a scheduling decision; the real join
  /// afterwards is instantaneous.
  void join() {
    if (coop_token_) sched::coop_join(coop_token_.get());
    if (impl_.joinable()) impl_.join();
  }

 private:
  int id_ = -1;
  std::unique_ptr<char> coop_token_;
  HostThread impl_;
};

/// Creates \p n workers running fn(0) .. fn(n-1), fork-join style.
/// Returns after all workers complete. Exceptions from workers are
/// re-thrown in the caller (the first one, by id order).
void fork_join(int n, const std::function<void(int)>& fn);

/// Like fork_join, but the caller participates as id 0 and only n-1
/// workers are spawned — the model OpenMP uses for its thread team.
void fork_join_inline(int n, const std::function<void(int)>& fn);

}  // namespace pml::thread
