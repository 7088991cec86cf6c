#pragma once

/// \file runtime.hpp
/// \brief The message-passing runtime: rank spawning and shared plumbing.
///
/// `run(np, program)` is the mpirun analogue: it spawns np ranks (as
/// threads, each with an isolated mailbox — see DESIGN.md for why this
/// preserves the semantics the patternlets teach), places them on the
/// simulated Cluster, runs `program(comm)` on every rank with a world
/// Communicator, and joins. Any rank's exception aborts the job and
/// rethrows in the caller; remaining blocked ranks are woken by poisoning
/// their mailboxes (so a test never hangs on a half-dead job).

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "core/trace.hpp"
#include "mp/cluster.hpp"
#include "mp/mailbox.hpp"
#include "mp/rendezvous.hpp"
#include "thread/condvar.hpp"

namespace pml::ckpt {
class Store;
struct GlobalCut;
}

namespace pml::mp {

class Communicator;

namespace detail {

/// Process-global state of one message-passing job.
struct RuntimeState {
  /// Builds the job's mailboxes, which count into blocked/deliveries and
  /// record every delivery in \p message_trace (when non-null).
  RuntimeState(int np, Cluster c, pml::Trace* message_trace);

  const int nprocs;
  const Cluster cluster;

  /// \name Progress accounting for the deadlock watchdog
  /// @{
  std::atomic<int> blocked{0};     ///< Ranks stuck in an indefinite wait.
  std::atomic<int> finished{0};    ///< Ranks whose program returned.
  std::atomic<std::uint64_t> deliveries{0};  ///< Total messages delivered.
  std::atomic<bool> deadlock_detected{false};
  /// @}

  std::vector<std::unique_ptr<Mailbox>> mailboxes;

  /// Synchronous-send acknowledgement table (keyed by ack id).
  std::mutex ack_mu;
  std::map<std::uint64_t, std::shared_ptr<pml::thread::Event>> acks;
  /// Set by poison_all() under ack_mu: no ack can arrive any more, so a
  /// later register_ack() throws instead of waiting forever.
  bool acks_closed = false;
  std::atomic<std::uint64_t> next_ack{1};

  /// Communicator context ids. 0 is the world communicator.
  std::atomic<int> next_context{1};

  double start_time = 0.0;  ///< For wtime().

  /// Per-receive budget inside collectives; 0 = wait forever (the
  /// default). Resolved from RunOptions::collective_timeout or the
  /// PML_MP_COLLECTIVE_TIMEOUT_MS environment variable by run().
  std::chrono::milliseconds collective_timeout{0};

  /// Eager/rendezvous threshold: encoded bodies over this many bytes move
  /// by ownership transfer through the rendezvous table instead of riding
  /// their envelope. Resolved from RunOptions::eager_bytes or the
  /// PML_MP_EAGER_BYTES environment variable by run().
  std::size_t eager_bytes = kDefaultEagerBytes;

  /// Parked large-message buffers awaiting claim (ownership transfer).
  /// Drained at finalize so a lost RTS can never leak its body.
  RendezvousTable rendezvous;

  /// \name Checkpoint/restart plumbing (pml::ckpt)
  /// Borrowed store (nullptr = checkpointing off; the per-rank vectors stay
  /// empty) plus the committed cut this attempt restores from. The launcher
  /// sets them before ranks spawn; each rank touches only its own slots, so
  /// they need no locking.
  /// @{
  pml::ckpt::Store* ckpt_store = nullptr;
  std::shared_ptr<const pml::ckpt::GlobalCut> ckpt_restore;  ///< Or nullptr.
  std::vector<std::uint64_t> ckpt_calls;  ///< Per-rank checkpoint() index.
  std::vector<char> ckpt_restore_pending;  ///< First checkpoint() restores.
  /// @}

  /// Throws RuntimeFault once the job is poisoned.
  std::shared_ptr<pml::thread::Event> register_ack(std::uint64_t id);
  void acknowledge(std::uint64_t id);
  /// Withdraws a pending ack registration (a retrying sender gave up on
  /// this attempt). A late acknowledge() for the id is silently ignored.
  void forget_ack(std::uint64_t id);
  void poison_all();
};

}  // namespace detail

/// Options for run() — the simulated cluster the job executes on, and the
/// deadlock watchdog's grace period.
struct RunOptions {
  Cluster cluster{};
  /// The watchdog aborts the job with DeadlockError once every live rank
  /// has been stuck in an indefinite wait, with no message delivered, for
  /// this long. Zero disables the watchdog. Deadline waits (recv_for) are
  /// never counted as stuck — they recover on their own.
  std::chrono::milliseconds deadlock_grace{3000};

  /// Bounds every internal receive inside collectives (broadcast, reduce,
  /// barrier, ...). When a peer stays silent past the budget the collective
  /// throws RuntimeFault naming the silent rank and its node instead of
  /// hanging the job — the degraded-but-diagnosable mode fault-injection
  /// runs want. Zero (the default) keeps collectives unbounded. The
  /// PML_MP_COLLECTIVE_TIMEOUT_MS environment variable supplies a value
  /// when this is zero.
  std::chrono::milliseconds collective_timeout{0};

  /// Eager/rendezvous threshold in bytes: typed bodies whose encoding is
  /// larger than this are parked in the rendezvous table and claimed by
  /// the receiver pointer-for-pointer (zero intermediate copies) instead
  /// of travelling inside the envelope. Unset (the default) defers to the
  /// PML_MP_EAGER_BYTES environment variable, then to kDefaultEagerBytes
  /// (8 KiB). Zero routes every non-empty body through the rendezvous;
  /// SIZE_MAX forces the pure eager path (the copy-cost ablation).
  std::optional<std::size_t> eager_bytes{};

  /// Optional message trace: every delivered envelope is recorded as
  /// (task = source rank, kind = "message", key = destination rank,
  /// aux = payload bytes). Makes communication complexity measurable —
  /// the ablation benches count messages instead of trusting wall time.
  /// Not owned; must outlive the job. nullptr disables tracing.
  pml::Trace* message_trace = nullptr;

  /// Enables checkpoint/restart for this job when no process-wide
  /// ckpt::Scope is active: commit every Nth Communicator::checkpoint()
  /// call into an in-memory store, and on a NodeCrashFault re-host the
  /// dead node's ranks on survivors and replay from the last committed
  /// cut. A live ckpt::Scope (the runner's --ckpt flag) takes precedence
  /// and brings its own interval/persistence options.
  std::optional<std::uint32_t> checkpoint_interval{};

  /// Recovery attempts before mp::run gives up and reports the crash the
  /// old way. Only meaningful with checkpointing enabled.
  int max_restarts = 4;
};

/// Runs `program(world)` on \p nprocs ranks and joins them ("mpirun -np N").
/// Rank exceptions propagate to the caller (first by rank order); a proven
/// no-progress state raises DeadlockError instead of hanging forever.
void run(int nprocs, const std::function<void(Communicator&)>& program,
         const RunOptions& options = {});

}  // namespace pml::mp
