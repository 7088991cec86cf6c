#pragma once

/// \file mutex.hpp
/// \brief Pthreads-style lock kit: mutex, spinlock, reader-writer lock.
///
/// These wrap or implement the lock types the Pthreads patternlets teach
/// (pthread_mutex_t, pthread_spinlock_t, pthread_rwlock_t) with RAII guards.
/// The rwlock is implemented from scratch (writer-preferring) because its
/// fairness policy is part of what the patternlet demonstrates.
///
/// Every lock here participates in both correctness tool layers:
///  - static: the PML_CAPABILITY annotations let `clang -Wthread-safety`
///    verify PML_GUARDED_BY disciplines at compile time (annotations.hpp);
///  - dynamic: acquisition/release hooks feed pml::analyze's happens-before
///    detector and lock-order deadlock predictor at run time. With no
///    analysis scope active a hook is one relaxed load.

#include <atomic>
#include <condition_variable>
#include <mutex>

#include "analyze/analyze.hpp"
#include "obs/obs.hpp"
#include "sched/coop.hpp"
#include "sched/sched.hpp"
#include "thread/adaptive_wait.hpp"
#include "thread/annotations.hpp"

namespace pml::thread {

namespace detail {
/// Lock identity for lock-wait span payloads.
inline std::int64_t lock_key(const void* lock) noexcept {
  return static_cast<std::int64_t>(reinterpret_cast<std::uintptr_t>(lock));
}
}  // namespace detail

/// pthread_mutex_t analogue: std::mutex plus an instrumented sync point at
/// acquisition, so chaos mode (pml::sched) can reshuffle which contender
/// wins the lock. With no chaos seed the point compiles to one relaxed
/// load — the wrapper costs nothing over the raw mutex.
class PML_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() PML_ACQUIRE() {
    sched::point_at(sched::Point::kLockAcquire, this);
    if (!mu_.try_lock()) {
      // Probe first so only a *contended* acquisition opens a lock-wait
      // span (free when profiling is off).
      obs::SpanScope wait{obs::SpanKind::kLockWait, "mutex", detail::lock_key(this)};
      lock_on(mu_, this);
    }
    analyze::on_lock_acquired(this);
  }

  bool try_lock() PML_TRY_ACQUIRE(true) {
    const bool got = mu_.try_lock();
    if (got) analyze::on_lock_acquired(this);
    return got;
  }

  void unlock() PML_RELEASE() {
    analyze::on_lock_released(this);
    mu_.unlock();
    sched::coop_wake(this);
  }

 private:
  std::mutex mu_;
};

/// RAII guard (pthread_mutex_lock / unlock pair). A real class rather than
/// an alias so clang's analysis sees the scoped acquire/release.
class PML_SCOPED_CAPABILITY LockGuard {
 public:
  explicit LockGuard(Mutex& mu) PML_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~LockGuard() PML_RELEASE() { mu_.unlock(); }

  LockGuard(const LockGuard&) = delete;
  LockGuard& operator=(const LockGuard&) = delete;

 private:
  Mutex& mu_;
};

/// pthread_spinlock_t analogue: test-and-test-and-set spinlock.
/// Useful for the mutual-exclusion cost ablation (short critical sections).
class PML_CAPABILITY("mutex") Spinlock {
 public:
  Spinlock() = default;
  Spinlock(const Spinlock&) = delete;
  Spinlock& operator=(const Spinlock&) = delete;

  void lock() PML_ACQUIRE() {
    sched::point_at(sched::Point::kLockAcquire, this);
    if (sched::coop_active()) {
      while (flag_.exchange(true, std::memory_order_acquire)) {
        sched::coop_block(this);
      }
    } else if (flag_.exchange(true, std::memory_order_acquire)) {
      // Contended: the spin is the wait (span is free when profiling is off).
      obs::SpanScope wait{obs::SpanKind::kLockWait, "spinlock", detail::lock_key(this)};
      do {
        // Spin on a plain load to avoid cache-line ping-pong.
        while (flag_.load(std::memory_order_relaxed)) {
        }
      } while (flag_.exchange(true, std::memory_order_acquire));
    }
    analyze::on_lock_acquired(this);
  }

  bool try_lock() noexcept PML_TRY_ACQUIRE(true) {
    const bool got = !flag_.exchange(true, std::memory_order_acquire);
    if (got) analyze::on_lock_acquired(this);
    return got;
  }

  void unlock() noexcept PML_RELEASE() {
    analyze::on_lock_released(this);
    flag_.store(false, std::memory_order_release);
    sched::coop_wake(this);
  }

 private:
  std::atomic<bool> flag_{false};
};

/// pthread_rwlock_t analogue, writer-preferring: once a writer is waiting,
/// new readers block, so writers cannot starve under a steady reader load.
class PML_CAPABILITY("mutex") RwLock {
 public:
  RwLock() = default;
  RwLock(const RwLock&) = delete;
  RwLock& operator=(const RwLock&) = delete;

  void lock_shared() PML_ACQUIRE_SHARED() {
    sched::point_at(sched::Point::kLockAcquire, this);
    {
      std::unique_lock lock(mu_);
      if (writers_waiting_ != 0 || writer_active_) {
        // Blocked behind a writer: that wait is the contention span.
        obs::SpanScope wait{obs::SpanKind::kLockWait, "rwlock-read",
                            detail::lock_key(this)};
        wait_on(readers_ok_, lock, this,
                [this] { return writers_waiting_ == 0 && !writer_active_; });
      }
      ++readers_active_;
    }
    analyze::on_lock_acquired(this);
  }

  void unlock_shared() PML_RELEASE_SHARED() {
    analyze::on_lock_released(this);
    std::lock_guard lock(mu_);
    if (--readers_active_ == 0) writers_ok_.notify_one();
    sched::coop_wake(this);
  }

  void lock() PML_ACQUIRE() {
    sched::point_at(sched::Point::kLockAcquire, this);
    {
      std::unique_lock lock(mu_);
      ++writers_waiting_;
      if (readers_active_ != 0 || writer_active_) {
        obs::SpanScope wait{obs::SpanKind::kLockWait, "rwlock-write",
                            detail::lock_key(this)};
        wait_on(writers_ok_, lock, this,
                [this] { return readers_active_ == 0 && !writer_active_; });
      }
      --writers_waiting_;
      writer_active_ = true;
    }
    analyze::on_lock_acquired(this);
  }

  void unlock() PML_RELEASE() {
    analyze::on_lock_released(this);
    std::lock_guard lock(mu_);
    writer_active_ = false;
    if (writers_waiting_ > 0) {
      writers_ok_.notify_one();
    } else {
      readers_ok_.notify_all();
    }
    sched::coop_wake(this);
  }

 private:
  std::mutex mu_;
  std::condition_variable readers_ok_;
  std::condition_variable writers_ok_;
  int readers_active_ = 0;
  int writers_waiting_ = 0;
  bool writer_active_ = false;
};

/// RAII shared (reader) guard for RwLock.
class PML_SCOPED_CAPABILITY SharedGuard {
 public:
  explicit SharedGuard(RwLock& l) PML_ACQUIRE_SHARED(l) : lock_(l) { lock_.lock_shared(); }
  ~SharedGuard() PML_RELEASE() { lock_.unlock_shared(); }
  SharedGuard(const SharedGuard&) = delete;
  SharedGuard& operator=(const SharedGuard&) = delete;

 private:
  RwLock& lock_;
};

}  // namespace pml::thread
