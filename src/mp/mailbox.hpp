#pragma once

/// \file mailbox.hpp
/// \brief Per-rank message queue with MPI matching semantics.
///
/// Each rank owns one Mailbox. Senders deposit envelopes; the owner receives
/// by (context, source, tag), with wildcards. Internally this is the
/// two-queue design real MPI implementations use:
///
///   * an **unexpected-message store** — messages that arrived before any
///     receive wanted them, bucketed by exact (context, source, tag) so an
///     exact-match receive or probe is one hash lookup, O(1) amortized;
///   * a **posted-receive queue** — receives that blocked before their
///     message arrived; deliver() hands the envelope to the first matching
///     posted receive directly and wakes *only that waiter* (no herd).
///
/// Every envelope is stamped with a mailbox-wide arrival sequence number.
/// Wildcard receives (kAnySource / kAnyTag) scan the matching buckets and
/// take the lowest stamp, which is exactly the arrival-order scan the old
/// single-deque matcher performed — so the MPI non-overtaking guarantee
/// (messages from the same source on the same tag are received in send
/// order, while other (source, tag) pairs can be matched around a pending
/// one) is preserved bit-for-bit. The equivalence is enforced by
/// tests/mp/matcher_property_test.cpp against a linear-scan oracle.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/error.hpp"
#include "mp/message.hpp"

namespace pml {
class Trace;
}

namespace pml::mp {

/// A rank's incoming message queue.
class Mailbox {
 public:
  /// A standalone mailbox: owned by no rank, and counting nothing.
  Mailbox() = default;

  /// Rank \p owner's mailbox in a job. It feeds the job's deadlock
  /// watchdog: \p blocked counts the owner while it waits indefinitely for
  /// a message, and \p deliveries counts every deposit. \p trace, when
  /// non-null, records each delivery as (source, "message", owner, bytes).
  /// The counters and the trace must outlive the mailbox.
  Mailbox(int owner, std::atomic<int>& blocked, std::atomic<std::uint64_t>& deliveries,
          pml::Trace* trace)
      : blocked_(&blocked), deliveries_(&deliveries), trace_(trace), owner_(owner) {}

  Mailbox(const Mailbox&) = delete;
  Mailbox& operator=(const Mailbox&) = delete;

  /// Deposits a message (called by senders). Hands it straight to a posted
  /// matching receiver when one is waiting (targeted wakeup), otherwise
  /// files it in the unexpected store. When pml::fault is active the
  /// envelope first passes the injection point, which may drop it, deposit
  /// it twice, hold it back (sleeping this sender), or throw NodeCrashFault
  /// at a sender whose node is marked crashed.
  void deliver(Envelope e);

  /// Deposits a message *bypassing* the fault-injection shim. Reserved for
  /// runtime-internal traffic that must not be dropped, duplicated, or
  /// crashed: checkpoint barrier tokens and release envelopes. User
  /// messages always go through deliver().
  void deposit_trusted(Envelope e);

  /// Files an envelope replayed from a checkpoint's channel state, before
  /// the job's ranks run. Bypasses fault injection like deposit_trusted(),
  /// and is neither counted as a delivery nor traced: the message was
  /// counted and traced when it was first delivered.
  void restore(Envelope e);

  /// Blocks until a matching message arrives, removes and returns it.
  /// Throws RuntimeFault if the runtime shuts down while waiting.
  Envelope receive(int context, int source, int tag);

  /// Like receive() but gives up after \p timeout; nullopt on timeout.
  /// A \p timeout <= 0 means "poll once", exactly try_receive(): no wait,
  /// no posted entry, and no timeout analysis event. Used by
  /// deadlock-detection tests, the deadlock patternlet, and the retry
  /// layer's deadline slicing.
  std::optional<Envelope> receive_for(int context, int source, int tag,
                                      std::chrono::milliseconds timeout);

  /// Removes and returns a matching message if one is already queued.
  std::optional<Envelope> try_receive(int context, int source, int tag);

  /// Returns the status of the first matching queued message without
  /// removing it (MPI_Iprobe analogue); nullopt if none queued.
  std::optional<Status> probe(int context, int source, int tag) const;

  /// Number of queued messages (any context/source/tag).
  std::size_t queued() const;

  /// Copy of every queued envelope in arrival order (pml::analyze
  /// finalize-time leftover scan: a message still here when the runtime
  /// joins is an unmatched send).
  std::vector<Envelope> snapshot() const;

  /// Marks the runtime as shutting down: pending and future blocking
  /// receives throw RuntimeFault instead of hanging forever.
  void poison();

 private:
  /// Exact bucket key for the unexpected-message store.
  struct MatchKey {
    int context;
    int source;
    int tag;
    friend bool operator==(const MatchKey&, const MatchKey&) = default;
  };
  struct MatchKeyHash {
    std::size_t operator()(const MatchKey& k) const noexcept {
      // Contexts, sources and tags are all small non-negative ints (plus
      // the -1 wildcards, which never reach the store); mix them into one
      // word and let the final multiplier scatter the bits.
      std::uint64_t h = (static_cast<std::uint64_t>(k.context) << 42) ^
                        (static_cast<std::uint64_t>(k.source) << 21) ^
                        static_cast<std::uint64_t>(k.tag);
      return static_cast<std::size_t>(h * 0x9e3779b97f4a7c15ull);
    }
  };
  using Store = std::unordered_map<MatchKey, std::deque<Envelope>, MatchKeyHash>;

  /// One blocked receive, stack-allocated in receive_into() and linked
  /// into posted_ while waiting. The deliverer fills env, flips state, and
  /// wakes *this entry only*.
  struct PostedReceive {
    int context;
    int source;
    int tag;
    bool timed;  ///< receive_for waits on cv; receive parks on state.
    std::atomic<std::uint32_t> state{kPending};
    Envelope env;
    std::condition_variable cv;

    /// Publishes \p final_state (kFilled or kPoisoned) and wakes the
    /// waiter. Called under mu_: the woken receiver re-locks mu_ before it
    /// touches the entry, so this never notifies into freed stack memory.
    void complete(std::uint32_t final_state) {
      if (timed) {
        state.store(final_state, std::memory_order_release);
        cv.notify_one();
      } else if (state.exchange(final_state, std::memory_order_acq_rel) == kParked) {
        // Wake syscall only when the receiver actually parked; a receiver
        // still in its spin/yield phase sees the exchange on its next load.
        state.notify_one();
      }
    }
  };
  static constexpr std::uint32_t kPending = 0;
  static constexpr std::uint32_t kFilled = 1;
  static constexpr std::uint32_t kPoisoned = 2;
  /// An untimed waiter CASes kPending -> kParked before futex-waiting; a
  /// waker whose exchange() returns anything else skips the wake syscall
  /// (the waiter is still spinning and will see the store). Timed waiters
  /// never use this value — their condvar always gets a notify.
  static constexpr std::uint32_t kParked = 3;

  /// The real deposit: matching, targeted wakeup or filing, then (when
  /// \p counted) the delivery count and trace. deliver() is the thin
  /// fault-injection shim in front of this.
  void deposit(Envelope e, bool counted = true);
  /// The one receive behind receive(), receive_for() and try_receive():
  /// moves the earliest matching message into \p out and returns true, or
  /// returns false once \p timeout expires. No \p timeout waits
  /// indefinitely; a \p timeout <= 0 polls once.
  bool receive_into(int context, int source, int tag,
                    std::optional<std::chrono::milliseconds> timeout, Envelope& out);
  /// Moves the earliest-arrival matching message into \p out (returns true),
  /// firing the analyze/obs match events on the calling (receiver) thread.
  /// Returns false, leaving \p out untouched, when nothing matches.
  bool extract_locked(int context, int source, int tag, Envelope& out);
  /// Locates the non-empty bucket holding the earliest match. Returns
  /// nullptr when nothing matches.
  std::deque<Envelope>* find_locked(int context, int source, int tag);
  /// The bucket for an exact key, created if absent. Serves steady-state
  /// traffic from the one-entry cache without touching the hash table.
  std::deque<Envelope>& bucket_for_locked(const MatchKey& key);
  /// Files an envelope in the unexpected store.
  void file_locked(Envelope&& e);
  /// analyze::on_mp_match + obs receive counters for a matched envelope;
  /// must run on the receiving thread (per-thread lanes, vector clocks).
  void note_match_locked(const Envelope& e, int source, int tag, int context);
  /// A timed receive gave up: snapshots the queued coordinates under the
  /// held \p lock (when analysis is on), unlocks, then reports the
  /// near-miss to analyze::on_mp_timeout.
  void report_timeout(std::unique_lock<std::mutex>& lock, int context, int source,
                      int tag);

  /// Held only for matching and filing, never across user code or a wait,
  /// so deposit and receive_into take it through thread::lock_briefly.
  mutable std::mutex mu_;
  /// Unexpected-message buckets. Buckets are *never erased* once created —
  /// drained ones stay empty so repeat traffic on the same key reuses them
  /// allocation-free, and so cached bucket pointers stay valid forever
  /// (unordered_map never invalidates references on insert).
  Store store_;
  MatchKey cached_key_{-1, -1, -1};      ///< Key of cached_bucket_.
  std::deque<Envelope>* cached_bucket_ = nullptr;
  std::deque<PostedReceive*> posted_;    ///< Blocked receives, post order.
  std::uint64_t arrival_seq_ = 0;        ///< Next arrival stamp.
  std::size_t total_queued_ = 0;         ///< Envelopes across all buckets.
  bool poisoned_ = false;
  /// \name The owning job's watchdog counters and message trace (all null
  /// for a standalone mailbox). Set at construction, never reassigned.
  /// @{
  std::atomic<int>* const blocked_ = nullptr;
  std::atomic<std::uint64_t>* const deliveries_ = nullptr;
  pml::Trace* const trace_ = nullptr;
  /// @}
  const int owner_ = -1;  ///< Owning rank (diagnostics, trace, fault lanes).
};

}  // namespace pml::mp
