#pragma once

/// \file latch.hpp
/// \brief One-shot countdown latch, built from mutex + condvar.
///
/// The single-use cousin of the Barrier: N events must happen before the
/// gate opens, and the counters and waiters need not be the same threads.
/// Used by fan-in completions ("wait until all workers have checked in")
/// where a cyclic barrier's party discipline doesn't fit.

#include <condition_variable>
#include <mutex>

#include "analyze/analyze.hpp"
#include "core/error.hpp"
#include "thread/adaptive_wait.hpp"

namespace pml::thread {

/// Counts down from an initial value; waiters block until it hits zero.
class Latch {
 public:
  explicit Latch(long count) : count_(count) {
    if (count < 0) throw pml::UsageError("Latch: count must be >= 0");
  }

  Latch(const Latch&) = delete;
  Latch& operator=(const Latch&) = delete;

  /// Decrements by \p n (default 1). Throws if it would go negative.
  /// Opens the gate (wakes all waiters) when the count reaches zero.
  void count_down(long n = 1) {
    std::lock_guard lock(mu_);
    if (n < 0 || n > count_) throw pml::UsageError("Latch: bad count_down amount");
    // Everything the counter did happens-before any post-gate waiter.
    analyze::on_sync_release(this);
    count_ -= n;
    if (count_ == 0) notify_all(open_, this);
  }

  /// Blocks until the count reaches zero.
  void wait() {
    std::unique_lock lock(mu_);
    wait_on(open_, lock, this, [this] { return count_ == 0; });
    analyze::on_sync_acquire(this);
  }

  /// count_down(1) then wait() — the arrive-and-wait idiom.
  void arrive_and_wait() {
    count_down();
    wait();
  }

  /// True once the gate is open (nonblocking).
  bool try_wait() const {
    std::lock_guard lock(mu_);
    if (count_ == 0) analyze::on_sync_acquire(this);
    return count_ == 0;
  }

  /// Remaining count (diagnostics).
  long pending() const {
    std::lock_guard lock(mu_);
    return count_;
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable open_;
  long count_;
};

}  // namespace pml::thread
