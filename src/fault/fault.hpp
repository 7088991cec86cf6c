#pragma once

/// \file fault.hpp
/// \brief pml::fault — seeded, deterministic fault injection for the
/// simulated cluster.
///
/// The paper's MPI patternlets run on a physical Beowulf cluster where
/// nodes genuinely fail, messages genuinely stall, and mpirun genuinely
/// kills jobs. Our simulated cluster is perfectly reliable, so students
/// (and our own robustness code paths) never see those scenarios. This
/// layer makes the cluster *lie*, on purpose and reproducibly:
///
///   - **drop**      a message vanishes at the mailbox deposit point;
///   - **delay**     a message is held back before deposit (the sender
///                   sleeps — modelling a slow link);
///   - **dup**       a message is deposited twice (the retransmit-without-
///                   dedup failure mode);
///   - **crash**     every rank placed on a named virtual node dies at its
///                   next fault checkpoint and the node's mailboxes are
///                   poisoned (mid-run node failure);
///   - **slow**      every delivery touching a named node pays a fixed
///                   extra latency (one straggler node).
///
/// Determinism follows pml::sched's model: each injection decision is a
/// pure function of (seed, lane, per-lane call index, action salt) using
/// the shared sched::detail::mix64 hash. Ranks are bound to lanes by the
/// mp runtime (lane = world rank), so the same `--fault=SPEC` + seed
/// reproduces the identical fault sequence run after run — which is what
/// makes "this patternlet hangs under drop:1" a testable assertion rather
/// than an anecdote.
///
/// Spec grammar (`--fault=SPEC`, or the PML_FAULT environment variable):
///
///   SPEC    := ACTION ("," ACTION)*
///   ACTION  := "drop:" N | "drop:" N "%"      -- first N deliveries per
///            | "dup:"  N | "dup:"  N "%"         sender lane, or a seeded
///            | "delay:" MS                       N% per-message draw
///            | "crash:" NODE ["@" K]           -- NODE = "node-02" / index;
///            | "slow:"  NODE "@" MS               K = checkpoints survived
///            | "seed:" S | "seed=" S
///
/// `delay:MS` holds each message back a seeded duration in [0, MS] ms.
/// With no `seed` term the plan inherits the active sched (chaos) seed, so
/// `--chaos-seed 42 --fault=drop:25%` is fully pinned by one number; with
/// neither, a fixed default seed keeps runs reproducible by default.
///
/// "Free when off" (the sched/analyze/obs bar): with no plan configured the
/// mailbox's fault hook is one relaxed atomic load and an untaken branch.
///
/// **Rendezvous interplay.** Large messages travel as a small RTS control
/// envelope while the body stays parked in the sender-side RendezvousTable
/// (mp/rendezvous.hpp). The RTS passes this layer's injection point like
/// any other deposit, so drop/dup/delay apply to the *control* message: a
/// dropped RTS strands the parked body (reclaimed by the finalize-time
/// drain and reported by the analyze comm lint as a stalled rendezvous), a
/// duplicated RTS is claimed once and the echo goes stale, and
/// send_with_retry re-publishes the same parked body without re-copying it.

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/error.hpp"

namespace pml::fault {

/// A fault-injected node crash. Derives RuntimeFault so the mp runtime's
/// "prefer the root cause over secondary faults" error selection treats it
/// like the shutdown faults it already knows; the runtime additionally
/// *contains* it (a crashed node does not poison the surviving ranks).
class NodeCrashFault : public RuntimeFault {
 public:
  NodeCrashFault(const std::string& what, int rank, int node)
      : RuntimeFault(what), rank_(rank), node_(node) {}

  int rank() const noexcept { return rank_; }  ///< The rank that died.
  int node() const noexcept { return node_; }  ///< Its node index.

 private:
  int rank_;
  int node_;
};

/// One parsed `--fault=SPEC`. Zero / empty fields mean "this action off".
struct FaultPlan {
  std::uint32_t drop_first = 0;    ///< drop:N — first N deliveries per lane.
  std::uint32_t drop_percent = 0;  ///< drop:N% — seeded per-message draw.
  std::uint32_t dup_first = 0;     ///< dup:N — duplicate a lane's first N.
  std::uint32_t dup_percent = 0;   ///< dup:N% — seeded per-message draw.
  std::uint32_t delay_max_ms = 0;  ///< delay:MS — seeded hold in [0, MS] ms.
  std::string crash_node;          ///< crash:NODE@K — node name or index.
  std::uint32_t crash_after = 0;   ///< Checkpoints a victim survives first.
  std::string slow_node;           ///< slow:NODE@MS — node name or index.
  std::uint32_t slow_ms = 0;       ///< Extra latency per touching delivery.
  std::uint64_t seed = 0;          ///< 0 = inherit sched::seed() / default.

  /// True iff any action is configured.
  bool any() const noexcept {
    return drop_first != 0 || drop_percent != 0 || dup_first != 0 ||
           dup_percent != 0 || delay_max_ms != 0 || !crash_node.empty() ||
           !slow_node.empty();
  }

  /// Parses the spec grammar above. Throws UsageError with the offending
  /// term on malformed input. An empty spec parses to an all-off plan.
  static FaultPlan parse(const std::string& spec);

  /// Canonical round-trippable rendering (diagnostics, run banners).
  std::string to_string() const;
};

/// Injection counters since the last configure(). The determinism
/// acceptance test compares two runs' snapshots field by field — including
/// delay_micros, which pins the exact per-message draws, not just counts.
struct Stats {
  std::uint64_t seed = 0;          ///< Effective seed of these tallies.
  std::uint64_t checkpoints = 0;   ///< Fault checkpoints passed (all lanes).
  std::uint64_t dropped = 0;       ///< Messages dropped.
  std::uint64_t duplicated = 0;    ///< Messages deposited twice.
  std::uint64_t delayed = 0;       ///< Messages held back (delay + slow).
  std::uint64_t delay_micros = 0;  ///< Total injected hold time.
  std::uint64_t crashed = 0;       ///< Ranks killed by a node crash.
};

namespace detail {
/// Nonzero while a plan with any() action is configured. Relaxed reads on
/// the mailbox hot path.
extern std::atomic<int> g_active;
}  // namespace detail

/// True iff a fault plan is active. One relaxed load — the mailbox guards
/// every fault hook behind this, keeping the no-fault path free.
inline bool active() noexcept {
  return detail::g_active.load(std::memory_order_relaxed) != 0;
}

/// Installs \p plan process-wide (an all-off plan deactivates injection),
/// resolves the effective seed (plan.seed, else the active sched seed, else
/// a fixed default), resets Stats and every lane's call counters. Like
/// sched::configure: not meant to be flipped concurrently with traffic.
void configure(const FaultPlan& plan);

/// The currently configured plan (all-off when inactive).
FaultPlan plan();

/// The seed injection decisions are drawn from (0 when inactive).
std::uint64_t effective_seed() noexcept;

/// Snapshot of the injection counters.
Stats stats() noexcept;

/// What the mailbox should do with one delivery (decided on the sender's
/// thread; any delay/slow hold has already been slept when this returns).
struct DeliveryFault {
  bool drop = false;       ///< Discard the envelope instead of depositing.
  bool duplicate = false;  ///< Deposit the envelope twice.
};

/// Fault checkpoint at a message deposit: decides drop/dup, sleeps any
/// delay/slow hold, bumps Stats + obs fault counters, reports drops to the
/// analyze comm lint, and — when this thread's rank sits on a crashing
/// node that has run out of checkpoints — poisons the node and throws
/// NodeCrashFault. Call only when active().
DeliveryFault on_deliver(int dest, int source, int tag, int context);

/// Fault checkpoint at a blocking receive entry: node-crash trigger only
/// (receives are where a dead rank is usually *noticed*, so victims must
/// also die while waiting, not just while sending). Call only when active().
void on_receive_checkpoint();

/// This thread's per-lane decision counters. Every drop/dup/crash decision
/// is a pure function of (seed, lane, per-lane call index), so persisting
/// these two indices in a checkpoint and restoring them on the resumed
/// rank's thread keeps seeded fault determinism intact across a restart:
/// the replayed prefix re-consumes the same decision stream positions.
struct LaneCounters {
  std::uint64_t deliveries = 0;
  std::uint64_t checkpoints = 0;
};

/// Snapshot of the calling thread's lane counters (checkpoint commit).
LaneCounters lane_snapshot();

/// Seeds the calling thread's lane counters from a checkpoint (restart).
/// Call from the resumed rank's thread, after its sched lane is bound.
void lane_restore(const LaneCounters& counters);

/// Drops the calling thread's lane counters, so its next decision starts a
/// fresh stream as on a new thread. Pooled host threads call this at task
/// start.
void reset_thread() noexcept;

/// How the fault layer sees the currently running mp job. Bound by
/// mp::run() for the job's duration; crash/slow actions are inert with no
/// job bound (there is no cluster to name a node of).
struct JobHooks {
  int nprocs = 0;
  /// Node name or index -> node index; throws UsageError on an unknown
  /// node (surfaced from mp::run before any rank starts).
  std::function<int(const std::string&)> resolve_node;
  /// World rank -> node index.
  std::function<int(int)> node_of;
  /// Node index -> display name ("node-02").
  std::function<std::string(int)> node_name;
  /// Poisons the rank's mailbox, waking its blocked receives into
  /// RuntimeFault. Called with no fault-layer lock held.
  std::function<void(int)> poison_rank;
};

/// RAII job binding: resolves the plan's node names against the job's
/// cluster on construction (throwing UsageError on a bad name) and unbinds
/// on destruction. One at a time; mp::run owns this.
class JobBinding {
 public:
  explicit JobBinding(JobHooks hooks);
  ~JobBinding();
  JobBinding(const JobBinding&) = delete;
  JobBinding& operator=(const JobBinding&) = delete;
};

/// World ranks killed by the crash action so far (empty when none; stable
/// across the job's teardown so error messages can name the dead).
std::vector<int> crashed_ranks();

/// RAII fault window, mirroring sched::ChaosScope: configures \p plan on
/// entry and restores the previous plan (and counters) on exit. The runner
/// and tests use this so injection never leaks past the run requesting it.
class FaultScope {
 public:
  explicit FaultScope(const FaultPlan& plan) : previous_(fault::plan()) {
    configure(plan);
  }
  ~FaultScope() { configure(previous_); }

  FaultScope(const FaultScope&) = delete;
  FaultScope& operator=(const FaultScope&) = delete;

 private:
  FaultPlan previous_;
};

}  // namespace pml::fault
