#pragma once

/// \file sync.hpp
/// \brief Mutual-exclusion constructs: atomic updates and ordered execution.
///
/// The Mutual Exclusion patternlets (paper Figs. 29-30) contrast three ways
/// to update shared state:
///  - unsynchronized (a data race; the "lost deposits" lesson),
///  - `#pragma omp atomic` — hardware read-modify-write, cheap,
///  - `#pragma omp critical` — a lock, general but much more expensive.
/// Region::critical covers the third; this header supplies the atomic
/// update (lock-free CAS on the shared location) and an OrderedTicket used
/// for the `ordered` construct.
///
/// As in OpenMP, `atomic` only applies to simple updates of a single
/// location (x += e, x = x op e, ...); arbitrary multi-statement work needs
/// `critical`. atomic_update's interface enforces exactly that shape: one
/// location, one pure combining function.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <type_traits>

#include "analyze/analyze.hpp"
#include "obs/obs.hpp"
#include "sched/sched.hpp"
#include "thread/adaptive_wait.hpp"

namespace pml::smp {

/// Atomically applies `shared = op(shared, operand)` with a CAS loop.
/// Works for any trivially-copyable, lock-free-able T (ints, doubles).
/// This is the `#pragma omp atomic` analogue.
template <typename T, typename Op>
T atomic_update(T& shared, T operand, Op op, const char* label = nullptr) {
  static_assert(std::is_trivially_copyable_v<T>,
                "atomic applies to simple scalar updates only");
  // Perturbing before the CAS loop stretches the update window but cannot
  // break it: a stale `expected` just makes the CAS retry. Under chaos this
  // is the contrast students should see — the torn read/write pair loses
  // updates, the CAS never does.
  sched::point_at(sched::Point::kSharedWrite, &shared);
  // An indivisible RMW: never races with other RMWs on the same location.
  analyze::on_rmw(&shared, label);
  obs::count(obs::Counter::kAtomicUpdates);
  std::atomic_ref<T> ref(shared);
  T expected = ref.load(std::memory_order_relaxed);
  T desired = op(expected, operand);
  while (!ref.compare_exchange_weak(expected, desired, std::memory_order_acq_rel,
                                    std::memory_order_relaxed)) {
    desired = op(expected, operand);
  }
  return desired;
}

/// `#pragma omp atomic` for the common `x += v` form.
template <typename T>
T atomic_add(T& shared, T value, const char* label = nullptr) {
  return atomic_update(
      shared, value, [](T a, T b) { return a + b; }, label);
}

/// Atomic load of a shared scalar (atomic read form).
///
/// To the analyzer this is a *plain* read: tearing an update into
/// atomic_read + atomic_write is exactly the bug the mutual-exclusion
/// patternlets stage, and the torn halves must still race-detect even
/// though each half is individually indivisible.
template <typename T>
T atomic_read(const T& shared, const char* label = nullptr) {
  const T value = std::atomic_ref<const T>(shared).load(std::memory_order_acquire);
  // Sync point *after* the load: when a patternlet tears an update into
  // read-then-write, this is exactly the window where another thread's
  // write gets lost. Chaos mode stretches it from nanoseconds to visible.
  sched::point_at(sched::Point::kSharedRead, &shared);
  analyze::on_read(&shared, label);
  return value;
}

/// Atomic store to a shared scalar (atomic write form). A plain write to
/// the analyzer, for the same torn-update reason as atomic_read.
template <typename T>
void atomic_write(T& shared, T value, const char* label = nullptr) {
  sched::point_at(sched::Point::kSharedWrite, &shared);
  analyze::on_write(&shared, label);
  std::atomic_ref<T>(shared).store(value, std::memory_order_release);
}

/// Sequencing aid for the `ordered` construct: threads execute their turn
/// strictly in ticket order 0, 1, 2, ... regardless of arrival order.
class OrderedTicket {
 public:
  explicit OrderedTicket(std::int64_t first = 0) : next_(first) {}

  OrderedTicket(const OrderedTicket&) = delete;
  OrderedTicket& operator=(const OrderedTicket&) = delete;

  /// Blocks until it is \p ticket's turn, runs fn, then admits ticket+1 —
  /// also when fn throws, so a failed turn cannot hang every later one.
  template <typename Fn>
  void run_in_order(std::int64_t ticket, Fn&& fn) {
    // The user's fn runs under mu_ and can pass serialization points, so
    // both the acquisition and the turn wait re-poll under a sink.
    std::unique_lock<std::mutex> lock(mu_, std::defer_lock);
    pml::thread::lock_on(lock, this);
    pml::thread::wait_relocking(cv_, lock, this, [&] { return next_ == ticket; });
    // Turn k's writes happen-before turn k+1 — `ordered` forms a chain.
    analyze::on_sync_acquire(this);
    try {
      fn();
    } catch (...) {
      admit_next(lock);
      throw;
    }
    admit_next(lock);
  }

 private:
  /// Ends the current turn: releases it to the analyzer, advances the
  /// ticket, and wakes the waiting turns.
  void admit_next(std::unique_lock<std::mutex>& lock) {
    analyze::on_sync_release(this);
    ++next_;
    lock.unlock();
    pml::thread::notify_all(cv_, this);
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::int64_t next_;
};

}  // namespace pml::smp
