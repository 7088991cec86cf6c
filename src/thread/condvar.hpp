#pragma once

/// \file condvar.hpp
/// \brief Condition-variable kit (pthread_cond_t analogue) plus a small
/// monitor helper used by the signaling patternlet.

#include <chrono>
#include <condition_variable>
#include <functional>
#include <mutex>

#include "analyze/analyze.hpp"
#include "thread/adaptive_wait.hpp"

namespace pml::thread {

/// pthread_cond_t analogue.
using CondVar = std::condition_variable;

/// A one-shot event: threads wait() until some thread set()s it.
/// This is the minimal useful condition-variable idiom, and the shape the
/// condvar patternlet teaches (state + mutex + condvar, wait in a loop).
class Event {
 public:
  Event() = default;
  Event(const Event&) = delete;
  Event& operator=(const Event&) = delete;

  /// Marks the event as signaled and wakes all waiters.
  void set() {
    {
      std::lock_guard lock(mu_);
      // The setter's writes happen-before everything after a wait() return.
      analyze::on_sync_release(this);
      signaled_ = true;
    }
    notify_all(cv_, this);
  }

  /// Blocks until set() has been called.
  void wait() {
    std::unique_lock lock(mu_);
    wait_on(cv_, lock, this, [this] { return signaled_; });
    analyze::on_sync_acquire(this);
  }

  /// Blocks until set() or until \p timeout elapses; true iff signaled.
  /// The bounded wait retry loops need (send_with_retry waits this long
  /// for an ack before resending). Under cooperative verification the
  /// timeout is logical: it is "granted" only at the moment no untimed
  /// lane can make progress, so timed retries neither race the clock nor
  /// stall exploration.
  bool wait_for(std::chrono::milliseconds timeout) {
    std::unique_lock lock(mu_);
    const bool ok = wait_on_for(cv_, lock, this, timeout, [this] { return signaled_; });
    if (ok) analyze::on_sync_acquire(this);
    return ok;
  }

  /// True once set() has been called.
  bool is_set() const {
    std::lock_guard lock(mu_);
    if (signaled_) analyze::on_sync_acquire(this);
    return signaled_;
  }

  /// Re-arms the event (test helper).
  void reset() {
    std::lock_guard lock(mu_);
    signaled_ = false;
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool signaled_ = false;
};

/// A monitor around a value: all access goes through with_lock, and
/// waiters block on a predicate over the value. Demonstrates the
/// "shared state is always guarded" discipline.
template <typename T>
class Monitor {
 public:
  explicit Monitor(T initial = T{}) : value_(std::move(initial)) {}

  Monitor(const Monitor&) = delete;
  Monitor& operator=(const Monitor&) = delete;

  /// Runs fn(value) under the lock and notifies waiters afterwards.
  template <typename Fn>
  auto with_lock(Fn&& fn) {
    std::unique_lock lock = acquire();
    return call_and_notify(lock, fn);
  }

  /// Blocks until pred(value) holds, then runs fn(value) under the lock.
  template <typename Pred, typename Fn>
  auto wait_then(Pred&& pred, Fn&& fn) {
    std::unique_lock lock = acquire();
    wait_relocking(cv_, lock, this, [&] { return pred(value_); });
    return call_and_notify(lock, fn);
  }

  /// Copy of the current value.
  T load() const {
    std::unique_lock lock = acquire();
    return value_;
  }

 private:
  /// Locks mu_. A monitor holds its mutex across user code — code that
  /// can pass serialization points and park — so it is taken with lock_on.
  std::unique_lock<std::mutex> acquire() const {
    std::unique_lock<std::mutex> lock(mu_, std::defer_lock);
    lock_on(lock, this);
    return lock;
  }

  /// Runs fn(value) under the held \p lock, then unlocks and wakes the
  /// waiters; returns what fn returns. A throwing fn wakes nobody: the
  /// caller's lock just unlocks as it unwinds.
  template <typename Fn>
  auto call_and_notify(std::unique_lock<std::mutex>& lock, Fn& fn) {
    const auto locked_call = [&] {
      analyze::LockedRegion held(&mu_, "monitor");
      return fn(value_);
    };
    if constexpr (std::is_void_v<decltype(fn(value_))>) {
      locked_call();
      lock.unlock();
      notify_all(cv_, this);
    } else {
      auto result = locked_call();
      lock.unlock();
      notify_all(cv_, this);
      return result;
    }
  }

  mutable std::mutex mu_;
  std::condition_variable cv_;
  T value_;
};

}  // namespace pml::thread
