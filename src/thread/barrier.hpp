#pragma once

/// \file barrier.hpp
/// \brief Cyclic barrier (pthread_barrier_t analogue), built from scratch.
///
/// Central counting barrier, lock-free on the arrival path: each arrival
/// decrements an atomic counter; the last arrival resets the counter and
/// publishes the next phase number, which is what waiters park on (the
/// phase word doubles as the sense of a sense-reversing barrier — it only
/// ever moves forward, so a waiter just waits for it to change). Reusable
/// across any number of phases without reinitialization — the property the
/// Barrier patternlet (paper Figs. 7-12) relies on.
///
/// Waiters use the shared spin-then-park ladder (thread/adaptive_wait.hpp):
/// barrier partners usually arrive within each other's spin window, so the
/// common phase costs no syscall at all; stragglers park on the phase word
/// and are woken by the single notify_all of the last arrival.

#include <atomic>
#include <cstdint>

#include "analyze/analyze.hpp"
#include "core/error.hpp"
#include "obs/obs.hpp"
#include "thread/adaptive_wait.hpp"

namespace pml::thread {

/// A reusable barrier for a fixed party of threads.
class Barrier {
 public:
  explicit Barrier(int parties) : parties_(parties), count_(parties) {
    if (parties <= 0) throw pml::UsageError("Barrier: parties must be positive");
  }

  Barrier(const Barrier&) = delete;
  Barrier& operator=(const Barrier&) = delete;

  /// Blocks until all parties have called arrive_and_wait for this phase.
  /// Returns true on exactly one thread per phase (the "serial thread",
  /// mirroring PTHREAD_BARRIER_SERIAL_THREAD).
  bool arrive_and_wait() {
    // Arrival-to-departure wait span; closes when the phase completes.
    obs::SpanScope wait_span{obs::SpanKind::kBarrier};
    // The phase read is exact, not racy: a thread can only be here after
    // departing phase my_phase-1, and phase my_phase cannot complete before
    // our own decrement below — so the word cannot move under us.
    const std::uint64_t my_phase = phase_.load(std::memory_order_acquire);
    // Happens-before edges for the analyzer, keyed by (barrier, phase) so
    // consecutive phases of a reused barrier cannot cross-talk: every
    // arrival releases into the phase, every departure acquires from it —
    // the all-to-all ordering a barrier provides. Each arrival runs before
    // its decrement, the last decrement reads the sum of all others
    // (acq_rel RMW chain), and departures run after acquiring the phase
    // publish — so all arrivals of a phase are recorded before any
    // departure of it, exactly as under the old mutex.
    analyze::on_barrier_arrive(this, my_phase);
    // key = phase, aux = barrier identity: (aux, key) groups one phase's
    // spans across tasks, which is what critical-path analysis matches on
    // to find the phase's last arrival.
    wait_span.set_payload(static_cast<std::int64_t>(my_phase),
                          static_cast<std::int64_t>(
                              reinterpret_cast<std::uintptr_t>(this)));
    if (count_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      // Last arrival: recycle the counter for the next phase *before*
      // publishing the phase — a released waiter may re-arrive immediately
      // and must find the counter reset. The release store makes the reset
      // (and every arriver's prior writes) visible to departing waiters.
      count_.store(parties_, std::memory_order_relaxed);
      phase_.store(my_phase + 1, std::memory_order_release);
      notify_all(phase_, &phase_);
      analyze::on_barrier_depart(this, my_phase);
      return true;
    }
    thread::adaptive_wait_while_equal(phase_, my_phase);
    analyze::on_barrier_depart(this, my_phase);
    return false;
  }

  /// Number of threads the barrier synchronizes.
  int parties() const noexcept { return parties_; }

 private:
  const int parties_;
  std::atomic<std::uint64_t> phase_{0};  ///< Completed-phase counter.
  std::atomic<int> count_;               ///< Arrivals still missing this phase.
};

}  // namespace pml::thread
