#pragma once

/// \file adaptive_wait.hpp
/// \brief Shared waits for the blocking substrates: the spin-then-park
/// waiter for atomic words, the brief-spin acquisition of the runtime's own
/// short-held locks, and the verifier-aware condvar waits and wakes every
/// lock, event and pool in pml::thread and pml::smp blocks through.
///
/// Every blocking wait on an atomic word (mailbox receive, thread::Barrier,
/// and through it the smp team barrier) faces the same trade-off: a futex
/// park costs two syscalls plus a context switch each way (~microseconds),
/// while the event being waited for — a partner's message, the last barrier
/// arrival — often lands within nanoseconds. This header centralizes the
/// ladder every such wait climbs:
///
///   1. bounded pause-spin  — only on multi-core hardware, where the waker
///      can actually run concurrently; on a single core spinning just burns
///      the waker's timeslice;
///   2. bounded yield-spin  — hand the core to the waker explicitly; on a
///      single core this is what makes ping-pong fast (the partner runs,
///      delivers, and the waiter resumes without any futex round trip);
///   3. park                — std::atomic::wait (futex on Linux), woken by a
///      *targeted* notify from whoever satisfies the wait.
///
/// Chaos interplay: when a pml::sched perturbation seed is active both spin
/// phases are skipped and waiters park immediately. A spinning waiter wakes
/// the instant the flag flips, which would let it slip *around* the sleeps
/// chaos injects at sched::point()s; parking keeps wakeup order fully under
/// the perturber's control, so the staged race demos and the fixed-seed race
/// tests see exactly the interleavings they saw with the old condvar waits.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "sched/coop.hpp"
#include "sched/sched.hpp"

namespace pml::thread {

/// One spin-loop pause. Cheaper than yield; keeps the core's pipeline from
/// speculating through the load loop (and frees it for a hyperthread twin).
inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  std::this_thread::yield();
#endif
}

/// Pause-spin iterations before yielding. Zero when a chaos seed is active
/// (see file comment) and zero on single-core hardware, where the event the
/// waiter spins for cannot happen until it gets off the core.
inline int spin_bound() noexcept {
  if (pml::sched::enabled()) return 0;
  static const int bound = std::thread::hardware_concurrency() > 1 ? 2048 : 0;
  return bound;
}

/// Yield iterations between spinning and parking. Zero under chaos. Kept
/// small: in a two-thread handoff the partner is the only other runnable
/// thread, so one or two yields reach it; with many runnable threads each
/// yield runs an *arbitrary* thread, so a long yield phase degenerates into
/// a scheduling lottery that delays the real waker — park instead.
inline int yield_bound() noexcept {
  return pml::sched::enabled() ? 0 : 4;
}

/// Blocks until `word != old`: bounded pause-spin, bounded yield, then park
/// on the atomic itself. The waker's store must use release order (the loads
/// here acquire) and should be followed by `word.notify_one()` /
/// `notify_all()` to lift parked waiters.
template <typename T>
inline void adaptive_wait_while_equal(const std::atomic<T>& word, T old) {
  if (sched::coop_active()) {
    // Cooperative verification: parking is a scheduling decision keyed on
    // the waited-on word; the waker's notify site calls coop_wake on it.
    while (word.load(std::memory_order_acquire) == old) {
      sched::coop_block(&word);
    }
    return;
  }
  for (int i = spin_bound(); i > 0; --i) {
    if (word.load(std::memory_order_acquire) != old) return;
    cpu_relax();
  }
  for (int i = yield_bound(); i > 0; --i) {
    if (word.load(std::memory_order_acquire) != old) return;
    std::this_thread::yield();
  }
  while (word.load(std::memory_order_acquire) == old) {
    word.wait(old, std::memory_order_acquire);
  }
}

/// Single-waiter variant that *advertises* its park, so the waker can skip
/// the futex-wake syscall while the waiter is still spinning. Protocol:
///
///   * the waiter spins/yields while `word == pending`, then CASes
///     `pending -> parked` and futex-waits on `parked`;
///   * the waker publishes with `word.exchange(final, acq_rel)` and calls
///     `word.notify_one()` **only when the exchange returned `parked`** —
///     a spinning waiter observes `final` on its next load, no syscall.
///
/// Returns the first value observed that is neither `pending` nor `parked`.
/// The waker must never store `pending` or `parked` itself.
template <typename T>
inline T adaptive_wait_and_advertise(std::atomic<T>& word, T pending,
                                     T parked) noexcept {
  for (int i = spin_bound(); i > 0; --i) {
    const T v = word.load(std::memory_order_acquire);
    if (v != pending) return v;
    cpu_relax();
  }
  for (int i = yield_bound(); i > 0; --i) {
    const T v = word.load(std::memory_order_acquire);
    if (v != pending) return v;
    std::this_thread::yield();
  }
  T expected = pending;
  if (!word.compare_exchange_strong(expected, parked,
                                    std::memory_order_acq_rel,
                                    std::memory_order_acquire)) {
    return expected;  // waker got there first
  }
  for (;;) {
    word.wait(parked, std::memory_order_acquire);
    const T v = word.load(std::memory_order_acquire);
    if (v != parked) return v;  // the waker never writes `pending` back
  }
}

/// \name Verifier-aware condvar waits and wakes
/// How a primitive blocks, decided in one place. Under a cooperative sink
/// (pml::verify's scheduler) exactly one lane runs at a time, so a wait
/// must never park the OS thread that holds the run token: it becomes a
/// `while (!ready()) sched::coop_block(key, &lock)` re-poll loop, and the
/// sink picks the lane that runs next. Natively it is the plain condvar
/// wait. \p key names the waited-on resource to the sink; wakers pass the
/// same key to notify_one / notify_all.
/// @{

/// Blocks on \p cv, under \p lock, until ready() holds.
template <typename Ready>
void wait_on(std::condition_variable& cv, std::unique_lock<std::mutex>& lock,
             const void* key, Ready ready) {
  if (sched::coop_active()) {
    while (!ready()) sched::coop_block(key, &lock);
  } else {
    cv.wait(lock, ready);
  }
}

/// wait_on bounded by \p timeout; returns ready(). Under a sink the timeout
/// is logical: it is granted only when no untimed lane can progress, so a
/// timed wait neither races the clock nor stalls exploration.
template <typename Rep, typename Period, typename Ready>
bool wait_on_for(std::condition_variable& cv, std::unique_lock<std::mutex>& lock,
                 const void* key, std::chrono::duration<Rep, Period> timeout,
                 Ready ready) {
  if (!sched::coop_active()) return cv.wait_for(lock, timeout, ready);
  while (!ready()) {
    if (sched::coop_block(key, &lock, /*timed=*/true)) return ready();
  }
  return true;
}

/// Acquires \p mu, a lock whose holder may keep it across user code that
/// passes serialization points and parks (Mutex, critical, Monitor,
/// OrderedTicket). Under a sink the acquisition re-polls try_lock: a
/// native block on a mutex whose holder is parked would stall every lane.
template <typename Lockable>
void lock_on(Lockable& mu, const void* key) {
  if (sched::coop_active()) {
    while (!mu.try_lock()) sched::coop_block(key);
  } else {
    mu.lock();
  }
}

/// Acquires \p mu, a lock that only the runtime's own short sections hold
/// (the mailbox's matching and the rendezvous table's park and claim, never
/// user code): try_lock, then up to 64 retries with a pause between them,
/// then a plain mu.lock(). Those holders release within about 100 ns, so a
/// collision resolves while spinning instead of putting the loser through
/// a futex sleep and wake. It spins only where spin_bound() does and never
/// under a sink, where the holder cannot run until this lane blocks. Locks
/// that user code holds (Mutex, critical) take lock_on instead: spinning
/// on them only burns the core the holder needs.
template <typename Lockable>
void lock_briefly(Lockable& mu) {
  // A retry (a pause and a failed try_lock) costs about 23 ns on a 4-vCPU
  // Xeon VM, so the spin lasts about 1.5 µs: many times a runtime section,
  // and shorter than the futex sleep and wake it avoids.
  constexpr int kTries = 64;
  if (mu.try_lock()) return;
  if (spin_bound() > 0 && !sched::coop_active()) {
    for (int i = 0; i < kTries; ++i) {
      cpu_relax();
      if (mu.try_lock()) return;
    }
  }
  mu.lock();
}

/// wait_on for a lock taken with lock_on: under a sink the lock is dropped
/// around each block and re-taken by re-polling, because another lane can
/// park inside user code while holding it.
template <typename Ready>
void wait_relocking(std::condition_variable& cv, std::unique_lock<std::mutex>& lock,
                    const void* key, Ready ready) {
  if (!sched::coop_active()) {
    cv.wait(lock, ready);
    return;
  }
  while (!ready()) {
    lock.unlock();
    sched::coop_block(key);
    lock_on(lock, key);
  }
}

/// Wakes one native waiter of \p waitable (a condvar or an atomic word)
/// and every lane the sink has parked on \p key.
template <typename Waitable>
void notify_one(Waitable& waitable, const void* key) {
  waitable.notify_one();
  sched::coop_wake(key);
}

/// Wakes every native waiter of \p waitable and every lane parked on \p key.
template <typename Waitable>
void notify_all(Waitable& waitable, const void* key) {
  waitable.notify_all();
  sched::coop_wake(key);
}
/// @}

}  // namespace pml::thread
