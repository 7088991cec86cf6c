#pragma once

/// \file sched.hpp
/// \brief Seeded schedule perturbation — making races *manifest*.
///
/// The paper's pedagogy is "uncomment one line and the answer goes wrong",
/// but on a fast (or single-core) machine the deliberately racy patternlets
/// often produce the *correct* answer: the window between a torn read and
/// its write is a few nanoseconds, and the OS scheduler rarely preempts
/// inside it. Students then see correct output from incorrect code — the
/// worst possible lesson.
///
/// pml::sched closes that gap. The substrates (pml::smp, pml::thread,
/// pml::mp) are compiled with instrumented sync points — `sched::point()`
/// calls at racy-window boundaries (after a shared read, before a shared
/// write), at lock acquisitions, at worksharing chunk boundaries, and at
/// message delivery. When perturbation is *off* (the default) a point is a
/// single relaxed atomic load and a predicted-not-taken branch: a no-op.
/// When a nonzero seed is configured, each point consults a deterministic
/// decision function and may yield the CPU, spin briefly, or sleep a few
/// tens of microseconds — stretching the racy windows until interleavings
/// that "never happen" happen with near-certainty, even on one core.
///
/// Determinism: the decision at a point is a pure function of
/// (seed, lane, call-index, point kind) — see decide(). Threads are bound
/// to lanes by the substrates (fork_join binds lane = thread id), so the
/// same seed yields the same perturbation schedule run after run. The
/// *interleaving* the OS picks still varies, but the stretched windows it
/// picks from do not — which is what makes "the race fires under seed N"
/// a reproducible classroom demonstration and a testable assertion.
///
/// Typical uses:
///   sched::ChaosScope chaos(42);        // RAII: perturb until scope exits
///   patternlet_runner omp/race --chaos-seed 42
///   RunSpec spec; spec.chaos_seed = 42; // tests: race must manifest

#include <atomic>
#include <cstdint>

namespace pml::sched {

/// Where in a substrate an instrumented sync point sits.
enum class Point : int {
  kSharedRead = 0,  ///< Just read a shared location that will be written back.
  kSharedWrite,     ///< About to write a shared location.
  kLockAcquire,     ///< About to acquire a lock / enter a critical section.
  kLoopChunk,       ///< Worksharing loop chunk boundary.
  kTaskDispatch,    ///< Task handoff between pool workers.
  kDelivery,        ///< Message delivery into a mailbox.
};

/// Number of distinct Point kinds (array sizing).
inline constexpr int kPointKinds = 6;

/// Printable name of a point kind ("shared-read", "lock-acquire", ...).
const char* to_string(Point p) noexcept;

/// What the perturber does at one point.
enum class Action : int {
  kNone = 0,  ///< Proceed undisturbed.
  kYield,     ///< std::this_thread::yield() — hand the core to a sibling.
  kSpin,      ///< Busy-wait `magnitude` iterations — stretch the window.
  kSleep,     ///< Sleep `magnitude` microseconds — force a reschedule.
};

/// One perturbation decision.
struct Decision {
  Action action = Action::kNone;
  std::uint32_t magnitude = 0;  ///< Spin iterations or sleep microseconds.
};

/// The pure decision function: what happens at the \p call-th point of kind
/// \p kind on lane \p lane under \p seed. Deterministic and stateless —
/// tests verify the applied schedule against this oracle.
Decision decide(std::uint64_t seed, std::uint32_t lane, std::uint64_t call,
                Point kind) noexcept;

namespace detail {
/// Active seed; 0 = perturbation off. Relaxed reads on the hot path.
extern std::atomic<std::uint64_t> g_seed;
/// Combined hot-path gate: nonzero iff a chaos seed is configured OR a
/// cooperative sink (coop.hpp) is installed. point() checks only this, so
/// adding controlled scheduling cost the off path nothing.
extern std::atomic<int> g_gate;
/// Out-of-line slow path: look up this thread's lane, decide, act, count.
void perturb(Point kind) noexcept;
/// Out-of-line gated path: dispatch to the cooperative sink when one is
/// installed (may throw CoopAbort), else perturb. \p addr is the site's
/// footprint address (nullptr when it has none).
void pause(Point kind, const void* addr);

/// splitmix64 finalizer: full-avalanche mixing of a 64-bit value. This is
/// the hash every seeded-decision layer shares (sched's decide(), fault's
/// per-message draws), so "seeded like --chaos-seed" means the same thing
/// everywhere.
constexpr std::uint64_t mix64(std::uint64_t z) noexcept {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}
}  // namespace detail

/// True iff a perturbation seed is active.
inline bool enabled() noexcept {
  return detail::g_seed.load(std::memory_order_relaxed) != 0;
}

/// The active seed (0 when perturbation is off).
inline std::uint64_t seed() noexcept {
  return detail::g_seed.load(std::memory_order_relaxed);
}

/// An instrumented sync point with a footprint address. Under chaos the
/// address is ignored; under cooperative verification it keys DPOR
/// conflict detection (two points conflict iff same address and at least
/// one is write-like). With neither active this is one relaxed load and an
/// untaken branch — safe to leave in release hot paths. Not noexcept: a
/// cooperative sink may throw CoopAbort to tear an execution down.
inline void point_at(Point kind, const void* addr) {
  if (detail::g_gate.load(std::memory_order_relaxed) != 0) {
    detail::pause(kind, addr);
  }
}

/// An instrumented sync point with no stable footprint address.
inline void point(Point kind) { point_at(kind, nullptr); }

/// Activates perturbation with \p seed (0 turns it off). Resets the applied
/// counters and every thread's per-lane call counter. Process-wide; not
/// meant to be flipped concurrently with running substrate work.
void configure(std::uint64_t seed) noexcept;

/// Binds the calling thread to \p lane for decision purposes. The
/// substrates call this with the team-relative thread id so perturbation
/// schedules survive thread re-creation across regions. Threads that never
/// bind get distinct auto-assigned lanes.
void bind_lane(std::uint32_t lane) noexcept;

/// The lane the calling thread bound via bind_lane(), or -1 if it never
/// bound one. pml::analyze uses this to report findings against the
/// team-relative ids students see in patternlet output.
int bound_lane() noexcept;

/// Forgets the calling thread's lane binding and call counter, leaving it
/// as a new thread starts. Pooled host threads call this at task start.
void reset_thread() noexcept;

/// Counters of perturbations applied since the last configure().
struct Stats {
  std::uint64_t points = 0;  ///< point() calls that consulted the perturber.
  std::uint64_t yields = 0;
  std::uint64_t spins = 0;
  std::uint64_t sleeps = 0;
  std::uint64_t slept_micros = 0;  ///< Total injected sleep time.
};

/// Snapshot of the applied-perturbation counters.
Stats stats() noexcept;

namespace detail {
/// Restores the applied counters to a snapshot (ChaosScope exit). Does not
/// touch the seed or the epoch.
void restore_counters(const Stats& s) noexcept;
}  // namespace detail

/// RAII perturbation window: configures \p seed on entry and restores the
/// previous seed *and* the applied-counter snapshot on exit, so nested
/// scopes compose — an inner scope's exit puts the outer scope's counters
/// back exactly where its entry found them.
class ChaosScope {
 public:
  explicit ChaosScope(std::uint64_t seed) noexcept
      : previous_(sched::seed()), counters_(stats()) {
    configure(seed);
  }
  ~ChaosScope() {
    configure(previous_);
    detail::restore_counters(counters_);
  }

  ChaosScope(const ChaosScope&) = delete;
  ChaosScope& operator=(const ChaosScope&) = delete;

 private:
  std::uint64_t previous_;
  Stats counters_;
};

}  // namespace pml::sched
