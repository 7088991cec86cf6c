#pragma once

/// \file semaphore.hpp
/// \brief Counting semaphore built from mutex + condition variable.
///
/// Built from scratch (rather than std::counting_semaphore) because the
/// construction *is* the lesson: the producer-consumer patternlet walks
/// through how a semaphore is assembled from lower-level primitives.

#include <condition_variable>
#include <mutex>

#include "analyze/analyze.hpp"
#include "core/error.hpp"
#include "thread/adaptive_wait.hpp"

namespace pml::thread {

/// sem_t analogue: a counting semaphore.
class Semaphore {
 public:
  explicit Semaphore(long initial = 0) : count_(initial) {
    if (initial < 0) throw pml::UsageError("Semaphore: initial count must be >= 0");
  }

  Semaphore(const Semaphore&) = delete;
  Semaphore& operator=(const Semaphore&) = delete;

  /// V / post: increments the count and wakes one waiter.
  void post() {
    {
      std::lock_guard lock(mu_);
      // A poster's prior writes happen-before the waiter it releases.
      analyze::on_sync_release(this);
      ++count_;
    }
    notify_one(cv_, this);
  }

  /// P / wait: blocks until the count is positive, then decrements it.
  void wait() {
    std::unique_lock lock(mu_);
    wait_on(cv_, lock, this, [this] { return count_ > 0; });
    analyze::on_sync_acquire(this);
    --count_;
  }

  /// Nonblocking P: decrements and returns true if the count was positive.
  bool try_wait() {
    std::lock_guard lock(mu_);
    if (count_ <= 0) return false;
    analyze::on_sync_acquire(this);
    --count_;
    return true;
  }

  /// Current count (racy snapshot; for display/tests only).
  long value() const {
    std::lock_guard lock(mu_);
    return count_;
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  long count_;
};

}  // namespace pml::thread
