#pragma once

/// \file analyze.hpp
/// \brief pml::analyze — the public hook surface and the analysis Scope.
///
/// The substrates (pml::thread, pml::smp, pml::mp) are compiled with
/// analysis hooks at the same places pml::sched instruments: shared-scalar
/// accesses, lock acquisitions, barriers, fork/join, task handoff, and
/// message delivery. With no Scope active every hook is one relaxed atomic
/// load and an untaken branch — the same "free when off" contract as
/// sched::point(). With a Scope active, events feed four checkers:
///
///   1. a FastTrack-style vector-clock happens-before race detector
///      (hb.hpp) — reports conflicting unordered accesses, deterministic
///      for a given sync structure regardless of the actual interleaving;
///   2. a lock-order-graph deadlock predictor (lockgraph.hpp) — reports
///      acquisition-order cycles even on runs that did not deadlock;
///   3. an smp worksharing lint (worklint.hpp) — barrier divergence and
///      mismatched worksharing sequences across a team;
///   4. an mp communication lint (commlint.hpp) — unmatched sends/receives,
///      wildcard-receive nondeterminism, tag/context misuse.
///
/// Scope::finish() returns the structured Report (report.hpp). The runner
/// plumbs it into RunResult (`RunSpec::analyze`, `patternlet_runner
/// --analyze`), where remediation text is synthesised from the patternlet's
/// RaceDemo annotation — this layer knows nothing about patternlets.
///
/// Threading contract: hooks may be called from any thread, including while
/// substrate-internal locks (mailbox, barrier) are held. The collector's
/// mutex is a strict leaf — hook code never takes a substrate lock — so no
/// lock cycle through the analyzer is possible. One Scope at a time,
/// process-wide.

#include <atomic>
#include <cstdint>
#include <vector>

#include "analyze/commlint.hpp"
#include "analyze/hb.hpp"
#include "analyze/report.hpp"
#include "analyze/worklint.hpp"

namespace pml::analyze {

namespace detail {

/// Nonzero while a Scope is active. Relaxed reads on the hot path.
extern std::atomic<int> g_active;

// Out-of-line slow paths (analyze.cpp); only reached while a Scope is live.
void record_access(Access kind, const void* addr, const char* label) noexcept;
void lock_acquired(const void* lock, const char* name) noexcept;
void lock_released(const void* lock) noexcept;
void sync_release(const void* token) noexcept;
void sync_acquire(const void* token) noexcept;
void barrier_arrive(const void* barrier, std::uint64_t phase) noexcept;
void barrier_depart(const void* barrier, std::uint64_t phase) noexcept;
std::uint64_t task_publish() noexcept;
void task_start(std::uint64_t token) noexcept;
void team_begin(const void* team, int size) noexcept;
void team_end(const void* team) noexcept;
void workshare(const void* team, int member, Construct c) noexcept;
std::uint64_t mp_deliver(int to, int source, int tag, int context) noexcept;
void mp_match(std::uint64_t msg_id, int rank, int source, int tag, int context,
              int wanted_source, std::size_t wild_sources) noexcept;
void mp_timeout(int rank, int wanted_source, int wanted_tag, int wanted_context,
                const std::vector<MsgCoord>& queued) noexcept;
void mp_leftover(int owner, int source, int tag, int context) noexcept;
void mp_fault_drop(int to, int source, int tag, int context) noexcept;
void mp_fault_stall(std::uint64_t dropped, long grace_ms) noexcept;
void mp_rdv_stalled(int sender, int dest, int tag, int context,
                    std::size_t bytes) noexcept;

}  // namespace detail

/// True iff an analysis Scope is active.
inline bool active() noexcept {
  return detail::g_active.load(std::memory_order_relaxed) != 0;
}

/// Drops the calling thread's analyzer identity (thread id, lane name,
/// held locks), so its next event registers it as a new thread. Pooled
/// host threads call this at task start.
void reset_thread() noexcept;

/// \name Memory-access hooks (smp/sync.hpp and friends)
/// @{
inline void on_read(const void* addr, const char* label = nullptr) noexcept {
  if (active()) detail::record_access(Access::kRead, addr, label);
}
inline void on_write(const void* addr, const char* label = nullptr) noexcept {
  if (active()) detail::record_access(Access::kWrite, addr, label);
}
inline void on_rmw(const void* addr, const char* label = nullptr) noexcept {
  if (active()) detail::record_access(Access::kAtomicRmw, addr, label);
}
/// @}

/// \name Lock hooks (pml::thread locks, smp critical sections)
/// Call on_lock_acquired *after* the lock is held and on_lock_released
/// *before* it is dropped. Feeds both the HB edge (release/acquire through
/// the lock) and the deadlock predictor (acquisition order + held set).
/// @{
inline void on_lock_acquired(const void* lock, const char* name = nullptr) noexcept {
  if (active()) detail::lock_acquired(lock, name);
}
inline void on_lock_released(const void* lock) noexcept {
  if (active()) detail::lock_released(lock);
}
/// @}

/// RAII pair for code holding a lock the analyzer should know about but
/// whose type is not one of the instrumented wrappers (e.g. the global
/// named-critical table's std::mutex). Construct after locking, destroy
/// before unlocking.
class LockedRegion {
 public:
  LockedRegion(const void* lock, const char* name) noexcept : lock_(lock) {
    on_lock_acquired(lock_, name);
  }
  ~LockedRegion() { on_lock_released(lock_); }
  LockedRegion(const LockedRegion&) = delete;
  LockedRegion& operator=(const LockedRegion&) = delete;

 private:
  const void* lock_;
};

/// \name General happens-before edges (fork/join, events, latches, ...)
/// release stamps the releasing thread's knowledge into \p token; acquire
/// joins it. Any stable address works as a token.
/// @{
inline void on_sync_release(const void* token) noexcept {
  if (active()) detail::sync_release(token);
}
inline void on_sync_acquire(const void* token) noexcept {
  if (active()) detail::sync_acquire(token);
}
/// @}

/// \name Barrier hooks (phase-keyed so generations cannot cross-talk)
/// Every arrival releases into (barrier, phase); every departure acquires
/// from it — the all-to-all ordering a barrier means.
/// @{
inline void on_barrier_arrive(const void* barrier, std::uint64_t phase) noexcept {
  if (active()) detail::barrier_arrive(barrier, phase);
}
inline void on_barrier_depart(const void* barrier, std::uint64_t phase) noexcept {
  if (active()) detail::barrier_depart(barrier, phase);
}
/// @}

/// \name Task-handoff hooks (smp task pool, thread pools)
/// publish at submission (returns a token carrying the submitter's clock;
/// 0 when analysis is off), start when a worker begins executing it.
/// @{
inline std::uint64_t on_task_publish() noexcept {
  return active() ? detail::task_publish() : 0;
}
inline void on_task_start(std::uint64_t token) noexcept {
  if (token != 0 && active()) detail::task_start(token);
}
/// @}

/// \name Team / worksharing hooks (smp parallel regions)
/// @{
inline void on_team_begin(const void* team, int size) noexcept {
  if (active()) detail::team_begin(team, size);
}
inline void on_team_end(const void* team) noexcept {
  if (active()) detail::team_end(team);
}
inline void on_workshare(const void* team, int member, Construct c) noexcept {
  if (active()) detail::workshare(team, member, c);
}
/// @}

/// \name Message-passing hooks (mp mailbox plane)
/// @{
/// Sender side of a delivery; returns the message's analysis id (0 = off).
inline std::uint64_t on_mp_deliver(int to, int source, int tag, int context) noexcept {
  return active() ? detail::mp_deliver(to, source, tag, context) : 0;
}
/// Receiver matched message \p msg_id. \p wild_sources: distinct sources
/// with matching messages queued at match time (nondeterminism evidence).
inline void on_mp_match(std::uint64_t msg_id, int rank, int source, int tag,
                        int context, int wanted_source,
                        std::size_t wild_sources) noexcept {
  if (active()) {
    detail::mp_match(msg_id, rank, source, tag, context, wanted_source, wild_sources);
  }
}
/// A bounded receive timed out; \p queued snapshots the mailbox.
inline void on_mp_timeout(int rank, int wanted_source, int wanted_tag,
                          int wanted_context,
                          const std::vector<MsgCoord>& queued) noexcept {
  if (active()) detail::mp_timeout(rank, wanted_source, wanted_tag, wanted_context, queued);
}
/// A message was still queued at rank \p owner when the cluster finalised.
inline void on_mp_leftover(int owner, int source, int tag, int context) noexcept {
  if (active()) detail::mp_leftover(owner, source, tag, context);
}
/// pml::fault dropped the message bound for rank \p to. Lets later timeout
/// and stall events distinguish injected loss from program bugs.
inline void on_mp_fault_drop(int to, int source, int tag, int context) noexcept {
  if (active()) detail::mp_fault_drop(to, source, tag, context);
}
/// The deadlock watchdog fired after fault injection dropped \p dropped
/// message(s): the pattern has no recovery path for message loss.
inline void on_mp_fault_stall(std::uint64_t dropped, long grace_ms) noexcept {
  if (active()) detail::mp_fault_stall(dropped, grace_ms);
}
/// A large-message body parked in the rendezvous table was never claimed:
/// its RTS control envelope was dropped or never received. The buffer was
/// reclaimed by the finalize drain (no leak); this reports the stall.
inline void on_mp_rdv_stalled(int sender, int dest, int tag, int context,
                              std::size_t bytes) noexcept {
  if (active()) detail::mp_rdv_stalled(sender, dest, tag, context, bytes);
}
/// @}

/// RAII analysis window. Exactly one may be active process-wide; nesting
/// throws. finish() stops collection and returns the Report (idempotent:
/// later calls return the same findings).
class Scope {
 public:
  Scope();
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  /// Ends the window (runs the end-of-run checkers: lock-graph cycles,
  /// unfinished teams) and returns everything found.
  Report finish();

 private:
  bool finished_ = false;
  Report report_;
};

}  // namespace pml::analyze
