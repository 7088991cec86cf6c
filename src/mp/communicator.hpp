#pragma once

/// \file communicator.hpp
/// \brief Communicator: typed point-to-point messaging and collectives.
///
/// The MPI_Comm analogue. A Communicator is a *group* of ranks plus an
/// isolated tag namespace (context id). The world communicator covers every
/// rank of the job; split()/dup() derive sub-communicators. All collective
/// operations must be called by every rank of the communicator, in the same
/// order — the MPI rule.
///
/// Collective algorithms (and where the paper relies on them):
///  - barrier: dissemination, ceil(lg p) rounds (Figs. 10-12);
///  - broadcast/reduce: binomial tree, ceil(lg p) rounds — the O(lg t)
///    combining the paper's Fig. 19 illustrates; the flat_* variants are the
///    O(p) strawmen used by the ablation bench. Every hop moves the whole
///    body;
///  - reduce_scatter / ring allgather / ring_allreduce: bandwidth-optimal
///    rings moving N/p-element blocks — 2N(p-1)/p bytes per rank instead of
///    the tree's N*lg p. Rings reorder combine operands, so they require
///    Op::commutative; allreduce() takes the ring for commutative vector
///    bodies of at least kRingAllreduceBytes and the tree otherwise;
///  - gather/scatter: linear at the root (Fig. 25-28);
///  - scan/exscan: linear chain (deterministic prefix order, one message
///    per rank).
///
/// Large-message transport: every data-bearing send routes through the
/// eager/rendezvous split (see mp/rendezvous.hpp). Encoded bodies at or
/// below the job's eager threshold travel inside their envelope; larger
/// ones are parked and move by ownership transfer, so the rvalue send
/// overloads and gatherv/allgatherv/scatter/alltoall(Payload) ship big
/// contiguous buffers with zero intermediate copies.

#include <algorithm>
#include <any>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/trace.hpp"
#include "mp/message.hpp"
#include "mp/op.hpp"
#include "mp/runtime.hpp"
#include "obs/obs.hpp"

namespace pml::mp {

/// Reserved internal tags (above kMaxUserTag), one block per collective.
namespace internal_tag {
inline constexpr int kBarrierBase = kMaxUserTag + 1;  ///< +round
inline constexpr int kBcast = kMaxUserTag + 64;
inline constexpr int kReduce = kMaxUserTag + 65;
inline constexpr int kGather = kMaxUserTag + 66;
inline constexpr int kScatter = kMaxUserTag + 67;
inline constexpr int kScan = kMaxUserTag + 68;
inline constexpr int kAlltoall = kMaxUserTag + 69;
inline constexpr int kSplit = kMaxUserTag + 70;
inline constexpr int kAck = kMaxUserTag + 71;
inline constexpr int kRingRs = kMaxUserTag + 74;  ///< Ring reduce-scatter blocks.
inline constexpr int kRingAg = kMaxUserTag + 75;  ///< Ring allgather blocks.

/// Checkpoint protocol block (pml::ckpt). The whole half-open tag range
/// [kCkptRelease, kCkptEnd) is protocol traffic, never user state: the
/// consistent-cut mailbox snapshot filters it out by range, so a barrier
/// token in flight can never be serialized into (or replayed out of) a
/// checkpoint.
inline constexpr int kCkptRelease = kMaxUserTag + 76;   ///< Seal done, resume.
inline constexpr int kCkptBarrierA = kMaxUserTag + 80;  ///< +round (cut entry).
inline constexpr int kCkptBarrierB = kMaxUserTag + 112;  ///< +round (cut exit).
inline constexpr int kCkptEnd = kMaxUserTag + 144;      ///< Exclusive range end.
}  // namespace internal_tag

/// Backoff schedule for the fault-tolerant point-to-point calls
/// (send_with_retry / recv_retry): capped exponential.
struct RetryPolicy {
  int max_attempts = 4;                         ///< Sends before giving up.
  std::chrono::milliseconds initial_backoff{25};  ///< First wait slice.
  int backoff_multiplier = 2;                   ///< Growth per attempt.
  std::chrono::milliseconds max_backoff{400};   ///< Slice ceiling.
};

/// What a deadline-bounded collective could salvage: the combined value
/// over the ranks that answered in time, plus the ranks that did not.
template <typename T>
struct Partial {
  T value{};
  std::vector<int> missing;  ///< Group ranks that never answered.
  bool complete() const noexcept { return missing.empty(); }
};

/// A group of ranks with an isolated tag namespace.
class Communicator {
 public:
  /// \name Identity
  /// @{
  int rank() const noexcept { return rank_; }          ///< MPI_Comm_rank
  int size() const noexcept { return static_cast<int>(group_.size()); }  ///< MPI_Comm_size

  /// Virtual node name hosting this rank (MPI_Get_processor_name).
  std::string processor_name() const;

  /// Global (world) rank backing this group rank.
  int world_rank(int group_rank) const;

  /// The simulated cluster this job runs on.
  const Cluster& cluster() const noexcept { return state_->cluster; }

  /// World ranks co-located on this rank's node (heterogeneous patternlets).
  std::vector<int> node_mates() const;

  /// Seconds since the job started (MPI_Wtime analogue).
  double wtime() const;
  /// @}

  /// \name Point-to-point
  /// @{

  /// Buffered send (MPI_Send with buffering): deposits the message and
  /// returns immediately. Bodies above the eager threshold park in the
  /// rendezvous table and move by ownership transfer.
  template <typename T>
  void send(const T& value, int dest, int tag = 0) const {
    check_peer(dest, "send");
    check_tag(tag);
    Payload bytes = Codec<T>::encode(value);
    count_payload_copy(bytes.size());
    send_payload(dest, tag, std::move(bytes));
  }

  /// Ownership-transfer send: the vector itself becomes the message body.
  /// Above the eager threshold its heap buffer is parked and the receiver
  /// claims it pointer-for-pointer — a 16 MB send costs zero copies when
  /// the receiver asks for the same std::vector<T>.
  template <typename T,
            typename = std::enable_if_t<std::is_trivially_copyable_v<T>>>
  void send(std::vector<T>&& values, int dest, int tag = 0) const {
    check_peer(dest, "send");
    check_tag(tag);
    send_owned(dest, tag, std::move(values));
  }

  /// Ownership-transfer send for strings (same contract as the vector
  /// overload).
  void send(std::string&& text, int dest, int tag = 0) const {
    check_peer(dest, "send");
    check_tag(tag);
    send_owned(dest, tag, std::move(text));
  }

  /// Ownership-transfer send for pre-serialized payloads: the blob moves
  /// into the envelope (eager) or parks whole (rendezvous); never copied.
  void send(Payload&& bytes, int dest, int tag = 0) const {
    check_peer(dest, "send");
    check_tag(tag);
    send_payload(dest, tag, std::move(bytes));
  }

  /// Synchronous send (MPI_Ssend): blocks until the receiver has matched
  /// the message. This is the send mode under which the classic
  /// recv-before-send deadlock (messagePassing2 patternlet) occurs.
  /// For a rendezvous-routed body the ack fires when the receiver *claims*
  /// the parked buffer — the closest analogue of "matched".
  template <typename T>
  void ssend(const T& value, int dest, int tag = 0) const {
    check_peer(dest, "ssend");
    check_tag(tag);
    const std::uint64_t id = state_->next_ack.fetch_add(1);
    auto event = state_->register_ack(id);
    Payload bytes = Codec<T>::encode(value);
    count_payload_copy(bytes.size());
    send_payload(dest, tag, std::move(bytes), id);
    // An unmatched synchronous send is an indefinite wait: count it for
    // the deadlock watchdog.
    state_->blocked.fetch_add(1, std::memory_order_relaxed);
    {
      obs::SpanScope wait{obs::SpanKind::kSend, "ssend", dest, tag};
      event->wait();
    }
    state_->blocked.fetch_sub(1, std::memory_order_relaxed);
  }

  /// Blocking typed receive (MPI_Recv). Wildcards kAnySource/kAnyTag.
  /// A matched RTS envelope resolves to its parked body; when T matches
  /// the type the sender moved in, the claim is zero-copy. A *stale* RTS
  /// (duplicated by fault injection, or withdrawn by a retrying sender)
  /// is skipped and the receive keeps waiting.
  template <typename T>
  T recv(int source = kAnySource, int tag = kAnyTag, Status* status = nullptr) const {
    check_source(source, "recv");
    for (;;) {
      auto value = take<T>(my_mailbox().receive(context_, source, tag), status);
      if (value) return std::move(*value);
      // Stale RTS: keep waiting.
    }
  }

  /// Deadline receive: nullopt on timeout. Lets deadlock demonstrations
  /// terminate (the patternlet *shows* the deadlock instead of hanging).
  /// A \p timeout <= 0 means "poll once" — exactly try_recv semantics,
  /// with no wait and no timeout analysis event. Stale RTS envelopes are
  /// skipped within the same deadline. The bounded collectives receive
  /// through this too.
  template <typename T>
  std::optional<T> recv_for(std::chrono::milliseconds timeout, int source = kAnySource,
                            int tag = kAnyTag, Status* status = nullptr) const {
    check_source(source, "recv_for");
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    auto remaining = timeout;
    for (;;) {
      auto e = my_mailbox().receive_for(context_, source, tag, remaining);
      if (!e) return std::nullopt;
      if (auto value = take<T>(std::move(*e), status)) return value;
      // A stale RTS consumed no budget worth of data: keep waiting out
      // the original deadline (a spent or poll-once budget polls again,
      // still free, and terminates — the queue only shrinks).
      remaining = std::max(std::chrono::duration_cast<std::chrono::milliseconds>(
                               deadline - std::chrono::steady_clock::now()),
                           std::chrono::milliseconds(0));
    }
  }

  /// Fault-tolerant synchronous send: like ssend() but the ack wait is
  /// bounded, and an unacknowledged message is resent — up to
  /// \p policy.max_attempts deliveries, with capped exponential backoff
  /// between them. Returns the number of attempts used (1 = no fault
  /// seen). Semantics are *at-least-once*: a slow (rather than lost) ack
  /// means the receiver can see the message twice, so pair this with an
  /// idempotent receiver or tag-level dedup. Each resend counts one
  /// obs kRetryAttempts. Throws RuntimeFault when every attempt goes
  /// unacknowledged. A body above the eager threshold is parked *once*;
  /// every attempt re-publishes an RTS for the same ticket, so a dropped
  /// control envelope costs a resend of ~16 bytes, not of the body — and
  /// rendezvous delivery stays effectively exactly-once (a duplicate RTS
  /// finds its ticket claimed and is skipped by the receiver). When every
  /// attempt fails the parked body is withdrawn before throwing, so
  /// nothing leaks.
  template <typename T>
  int send_with_retry(const T& value, int dest, int tag = 0,
                      const RetryPolicy& policy = {}) const {
    check_peer(dest, "send_with_retry");
    check_tag(tag);
    if (policy.max_attempts <= 0) {
      throw UsageError("send_with_retry: max_attempts must be positive");
    }
    check_backoff(policy, "send_with_retry");
    auto backoff = policy.initial_backoff;
    if (backoff.count() <= 0) backoff = std::chrono::milliseconds(1);
    Payload bytes = Codec<T>::encode(value);
    count_payload_copy(bytes.size());
    const bool large = bytes.size() > state_->eager_bytes;
    RendezvousHandle handle;
    if (large) {
      handle = park_rts(dest, tag, RendezvousTable::Parked::owning(std::move(bytes)));
    }
    for (int attempt = 1;; ++attempt) {
      const std::uint64_t id = state_->next_ack.fetch_add(1);
      auto event = state_->register_ack(id);
      Envelope e{context_, rank_, tag,
                 large ? Codec<RendezvousHandle>::encode(handle) : bytes};
      e.rts = large;
      e.wants_ack = true;
      e.ack_id = id;
      deliver(dest, std::move(e));
      // Bounded wait, so never counted blocked for the watchdog: it
      // always recovers on its own.
      bool acked;
      {
        obs::SpanScope wait{obs::SpanKind::kSend, "send-retry", dest, tag};
        acked = event->wait_for(backoff);
      }
      if (acked) return attempt;
      state_->forget_ack(id);
      // The ack may have landed between the timeout and the forget;
      // honor it rather than resending a message that arrived.
      if (event->is_set()) return attempt;
      if (attempt >= policy.max_attempts) {
        // Withdraw the parked body before giving up: a ticket nobody will
        // claim must not wait for the finalize drain, and any RTS copies
        // still queued become stale no-ops at the receiver.
        if (large) (void)state_->rendezvous.claim(handle.ticket);
        throw RuntimeFault("send_with_retry: no ack from rank " +
                           std::to_string(dest) + " after " +
                           std::to_string(attempt) + " attempts");
      }
      obs::count(obs::Counter::kRetryAttempts);
      obs::observe(obs::Metric::kRetryAttempts, 1);
      backoff = std::min(backoff * policy.backoff_multiplier, policy.max_backoff);
    }
  }

  /// Fault-tolerant bounded receive: spends up to \p total waiting, but in
  /// growing slices — a zero-cost poll first (recv_for's poll-once path),
  /// then initial_backoff doubling up to max_backoff, each slice clipped
  /// to the remaining budget. Returns nullopt when the budget runs out.
  /// Each re-wait counts one obs kRetryAttempts, so the profile shows how
  /// hard the receiver had to work. This is the receive to pair with a
  /// lossy link: it rides out delay and duplicate faults and converts a
  /// genuinely lost message into a diagnosable nullopt.
  template <typename T>
  std::optional<T> recv_retry(std::chrono::milliseconds total,
                              int source = kAnySource, int tag = kAnyTag,
                              Status* status = nullptr,
                              const RetryPolicy& policy = {}) const {
    check_source(source, "recv_retry");
    check_backoff(policy, "recv_retry");
    const auto deadline = std::chrono::steady_clock::now() + total;
    auto next = policy.initial_backoff.count() > 0 ? policy.initial_backoff
                                                   : std::chrono::milliseconds(1);
    auto slice = std::chrono::milliseconds(0);  // first pass: poll once
    for (;;) {
      if (auto e = my_mailbox().receive_for(context_, source, tag, slice)) {
        if (auto value = take<T>(std::move(*e), status)) return value;
        // Stale RTS (a duplicate this receive already rode out): fall
        // through to the backoff bookkeeping and wait for the real one.
      }
      const auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - std::chrono::steady_clock::now());
      if (remaining.count() <= 0) return std::nullopt;
      obs::count(obs::Counter::kRetryAttempts);
      obs::observe(obs::Metric::kRetryAttempts, 1);
      slice = std::min({next, policy.max_backoff, remaining});
      next = std::min(next * policy.backoff_multiplier, policy.max_backoff);
    }
  }

  /// Nonblocking receive attempt: nullopt if nothing matches right now.
  /// Consumes (and skips past) stale RTS envelopes without blocking.
  template <typename T>
  std::optional<T> try_recv(int source = kAnySource, int tag = kAnyTag,
                            Status* status = nullptr) const {
    check_source(source, "try_recv");
    return recv_for<T>(std::chrono::milliseconds(0), source, tag, status);
  }

  /// Nonblocking probe for a matching queued message (MPI_Iprobe).
  std::optional<Status> probe(int source = kAnySource, int tag = kAnyTag) const;

  /// Combined exchange (MPI_Sendrecv): deadlock-free by construction.
  template <typename TSend, typename TRecv = TSend>
  TRecv sendrecv(const TSend& value, int dest, int source, int send_tag = 0,
                 int recv_tag = kAnyTag, Status* status = nullptr) const {
    send(value, dest, send_tag);
    return recv<TRecv>(source, recv_tag, status);
  }
  /// @}

  /// \name Collectives (call on every rank, same order)
  /// @{

  /// Dissemination barrier, ceil(lg p) rounds (MPI_Barrier).
  void barrier() const;

  /// Deadline barrier: true iff every rank reported to rank 0 within
  /// \p timeout; false (degraded) when someone stayed silent — likely
  /// crashed — and the survivors are released anyway instead of hanging.
  /// Flat (everyone reports to rank 0, rank 0 releases with the verdict);
  /// call on every live rank.
  bool barrier_for(std::chrono::milliseconds timeout) const;

  /// Deadline-bounded reduction, flat at the root: a rank silent past the
  /// shared \p timeout budget is *skipped* instead of hanging the job.
  /// The root returns the fold over the responders (rank order) plus the
  /// list of ranks that never answered; other ranks deliver their
  /// contribution and return {local, {}}. The degraded-result collective
  /// for node-crash runs.
  template <typename T>
  Partial<T> reduce_with_timeout(const T& local, const Op<T>& op, int root,
                                 std::chrono::milliseconds timeout) const {
    check_peer(root, "reduce_with_timeout");
    obs::SpanScope coll{obs::SpanKind::kCollective, "reduce-timeout", root};
    if (rank_ != root) {
      Payload bytes = Codec<T>::encode(local);
      count_payload_copy(bytes.size());
      send_payload(root, internal_tag::kReduce, std::move(bytes));
      return Partial<T>{local, {}};
    }
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    Partial<T> out;
    out.value = local;
    for (int r = 0; r < size(); ++r) {
      if (r == root) continue;
      const auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - std::chrono::steady_clock::now());
      // Budget spent: fall through to a poll so an already-queued
      // contribution still lands (recv_for treats <= 0 as poll-once).
      auto value = recv_for<T>(remaining, r, internal_tag::kReduce);
      if (!value) {
        out.missing.push_back(r);
        continue;
      }
      out.value = op.combine(out.value, std::move(*value));
      obs::count(obs::Counter::kCombines);
    }
    return out;
  }

  /// Binomial-tree broadcast from \p root (MPI_Bcast). Returns the value
  /// on every rank. Each rank takes the value from its parent, then sends
  /// every child its own copy (see send_copy): one payload copy per hop,
  /// and a large vector arrives without a decode.
  template <typename T>
  T broadcast(T value, int root) const {
    check_peer(root, "broadcast");
    obs::SpanScope coll{obs::SpanKind::kCollective, "broadcast", root};
    const int p = size();
    const int vr = (rank_ - root + p) % p;
    if (vr != 0) {
      // The parent is vr with its lowest set bit cleared.
      const int parent = ((vr & (vr - 1)) + root) % p;
      value = coll_recv_typed<T>(parent, internal_tag::kBcast, "broadcast");
    }
    for (int child : bcast_children(vr, root)) {
      send_copy(child, internal_tag::kBcast, value);
    }
    return value;
  }

  /// Flat (linear) broadcast — the O(p) strawman for the ablation bench.
  template <typename T>
  T flat_broadcast(T value, int root) const {
    check_peer(root, "flat_broadcast");
    if (rank_ == root) {
      // Encode once, copy bytes per destination.
      const Payload bytes = Codec<T>::encode(value);
      count_payload_copy(bytes.size());
      for (int r = 0; r < size(); ++r) {
        if (r != root) {
          Payload forward = bytes;
          count_payload_copy(forward.size());
          send_payload(r, internal_tag::kBcast, std::move(forward));
        }
      }
      return value;
    }
    return decode_counted<T>(
        coll_recv_typed<Payload>(root, internal_tag::kBcast, "flat_broadcast"));
  }

  /// Binomial-tree reduction to \p root (MPI_Reduce): ceil(lg p) parallel
  /// combining rounds — the paper's Fig. 19. The result is meaningful only
  /// at the root (other ranks get their partial subtree value back).
  /// Combining order is deterministic rank order, so any *associative* op
  /// (including user-defined, non-commutative ones) is reduced correctly.
  /// If \p trace is given, each combine is recorded as
  /// (task=rank, kind="combine", key=round, aux=partner).
  template <typename T>
  T reduce(T local, const Op<T>& op, int root, pml::Trace* trace = nullptr) const {
    return reduce_generic<T>(
        std::move(local),
        [&op](T& acc, const T& incoming) { acc = op.combine(acc, incoming); }, root,
        trace);
  }

  /// Elementwise vector reduction (MPI_Reduce on an array). Each hop ships
  /// a copy of the sender's subtree partial (see send_copy): one payload
  /// copy per hop above the eager threshold.
  template <typename T>
  std::vector<T> reduce(std::vector<T> local, const Op<T>& op, int root,
                        pml::Trace* trace = nullptr) const {
    return reduce_generic<std::vector<T>>(
        std::move(local),
        [&op](std::vector<T>& acc, const std::vector<T>& incoming) {
          if (acc.size() != incoming.size()) {
            throw UsageError("reduce: ranks contributed different vector lengths");
          }
          combine_range(op, acc.data(), incoming.data(), acc.size());
        },
        root, trace);
  }

  /// Flat (linear) reduction — the O(p) strawman for the ablation bench:
  /// the root receives every partial and folds sequentially.
  template <typename T>
  T flat_reduce(const T& local, const Op<T>& op, int root) const {
    check_peer(root, "flat_reduce");
    if (rank_ != root) {
      send_encoded(root, internal_tag::kReduce, local);
      return local;
    }
    T acc = local;
    // Fold in rank order for determinism.
    for (int r = 0; r < size(); ++r) {
      if (r == root) continue;
      acc = op.combine(
          acc, coll_recv_typed<T>(r, internal_tag::kReduce, "flat_reduce"));
    }
    return acc;
  }

  /// Flat vector reduction by ownership transfer: each contribution *moves*
  /// to the root (rendezvous above the eager threshold — zero transport
  /// copies), so the strawman measures the flat algorithm, not a gratuitous
  /// encode copy. Non-root ranks return an empty vector.
  template <typename T,
            typename = std::enable_if_t<std::is_trivially_copyable_v<T>>>
  std::vector<T> flat_reduce(std::vector<T> local, const Op<T>& op, int root) const {
    check_peer(root, "flat_reduce");
    obs::SpanScope coll{obs::SpanKind::kCollective, "flat-reduce", root};
    if (rank_ != root) {
      send_owned(root, internal_tag::kReduce, std::move(local));
      return {};
    }
    std::vector<T> acc = std::move(local);
    // Fold in rank order for determinism.
    for (int r = 0; r < size(); ++r) {
      if (r == root) continue;
      std::vector<T> inc = coll_recv_typed<std::vector<T>>(
          r, internal_tag::kReduce, "flat_reduce");
      if (inc.size() != acc.size()) {
        throw UsageError("flat_reduce: ranks contributed different vector lengths");
      }
      combine_range(op, acc.data(), inc.data(), acc.size());
      obs::count(obs::Counter::kCombines);
    }
    return acc;
  }

  /// MPI_Allreduce: reduce to rank 0, then broadcast.
  template <typename T>
  T allreduce(T local, const Op<T>& op) const {
    T reduced = reduce(std::move(local), op, 0);
    return broadcast(std::move(reduced), 0);
  }

  /// The large-body bar of the vector allreduce rule.
  static constexpr std::size_t kRingAllreduceBytes = 256 * 1024;

  /// Vector MPI_Allreduce. One fixed rule: a commutative vector of trivially
  /// copyable elements of at least kRingAllreduceBytes takes the
  /// bandwidth-optimal ring (reduce-scatter + allgather, 2N(p-1)/p bytes
  /// per rank); everything else takes the tree (reduce + broadcast,
  /// N*lg p per rank but lg p rounds). Call ring_allreduce() or reduce()
  /// then broadcast() to pick an algorithm by name.
  template <typename T>
  std::vector<T> allreduce(std::vector<T> local, const Op<T>& op) const {
    if constexpr (std::is_trivially_copyable_v<T>) {
      if (op.commutative && local.size() * sizeof(T) >= kRingAllreduceBytes) {
        return ring_allreduce(std::move(local), op);
      }
    }
    std::vector<T> reduced = reduce(std::move(local), op, 0);
    return broadcast(std::move(reduced), 0);
  }

  /// Ring reduce-scatter (MPI_Reduce_scatter_block with the balanced block
  /// split): every rank contributes an equal-length vector and returns the
  /// fully reduced block it owns — block r for rank r, the first n%p blocks
  /// one element longer. p-1 steps each moving one N/p-element block, with
  /// in-place combining and move-forwarding, so transport is zero-copy
  /// above the eager threshold. Requires a *commutative* op (blocks combine
  /// in ring-rotation order, not rank order): a non-commutative op falls
  /// back to a tree reduce at rank 0 followed by a block scatter.
  template <typename T>
  std::vector<T> reduce_scatter(std::vector<T> local, const Op<T>& op) const {
    static_assert(std::is_trivially_copyable_v<T>,
                  "reduce_scatter requires a trivially copyable element");
    const int p = size();
    if (p == 1) return local;
    if (!op.commutative) return reduce_scatter_via_tree(std::move(local), op);
    obs::SpanScope coll{obs::SpanKind::kCollective, "reduce-scatter"};
    return ring_reduce_scatter_inplace(local, op, "reduce_scatter",
                                       /*write_home=*/false);
  }

  /// Ring allgather (MPI_Allgather over variable-length blocks): every rank
  /// contributes a block; all return the rank-ordered concatenation. p-1
  /// steps, each forwarding the block received in the previous step — every
  /// rank moves 2N(p-1)/p bytes total instead of funnelling N through a
  /// root. Blocks are self-describing, so contributions may differ in
  /// length (allgatherv semantics).
  template <typename T>
  std::vector<T> ring_allgather(std::vector<T> mine) const {
    static_assert(std::is_trivially_copyable_v<T>,
                  "ring_allgather requires a trivially copyable element");
    const int p = size();
    if (p == 1) return mine;
    obs::SpanScope coll{obs::SpanKind::kCollective, "ring-allgather"};
    const int left = (rank_ - 1 + p) % p;
    const int right = (rank_ + 1) % p;
    std::vector<std::vector<T>> blocks(static_cast<std::size_t>(p));
    blocks[static_cast<std::size_t>(rank_)] = std::move(mine);
    for (int t = 0; t < p - 1; ++t) {
      const int sb = (rank_ - t + p) % p;
      const int rb = (rank_ - 1 - t + 2 * p) % p;
      std::vector<T> out = blocks[static_cast<std::size_t>(sb)];
      count_payload_copy(out.size() * sizeof(T));
      obs::count(obs::Counter::kCollSegments);
      send_owned(right, internal_tag::kRingAg, std::move(out));
      blocks[static_cast<std::size_t>(rb)] = coll_recv_typed<std::vector<T>>(
          left, internal_tag::kRingAg, "ring_allgather");
    }
    std::size_t total = 0;
    for (const auto& b : blocks) total += b.size();
    std::vector<T> all;
    all.reserve(total);
    for (const auto& b : blocks) all.insert(all.end(), b.begin(), b.end());
    count_payload_copy(total * sizeof(T));
    return all;
  }

  /// Bandwidth-optimal allreduce: ring reduce-scatter (p-1 steps) composed
  /// with ring allgather (p-1 steps), each step moving one N/p-element
  /// block — 2N(p-1)/p bytes on the wire per rank instead of the tree's
  /// N*lg p. The only payload-plane copies are the op-combine/data-placement
  /// writes ((p+1)/p * N elements per rank); block transport above the
  /// eager threshold is zero-copy rendezvous, machine-checked via
  /// obs::Counter::kPayloadBytesCopied. Requires a *commutative* op (the
  /// ring rotation reorders combine operands); non-commutative ops fall
  /// back to tree reduce + broadcast, so results are always correct.
  template <typename T>
  std::vector<T> ring_allreduce(std::vector<T> local, const Op<T>& op) const {
    static_assert(std::is_trivially_copyable_v<T>,
                  "ring_allreduce requires a trivially copyable element");
    const int p = size();
    if (p == 1) return local;
    if (!op.commutative) {
      std::vector<T> reduced = reduce(std::move(local), op, 0);
      return broadcast(std::move(reduced), 0);
    }
    obs::SpanScope coll{obs::SpanKind::kCollective, "ring-allreduce"};
    std::vector<T> mine =
        ring_reduce_scatter_inplace(local, op, "ring_allreduce",
                                    /*write_home=*/true);
    // Allgather phase fills the other ranks' blocks directly into `local`;
    // the reduced own-block seeds the ring without another slice copy.
    const int left = (rank_ - 1 + p) % p;
    const int right = (rank_ + 1) % p;
    std::vector<T> carry = std::move(mine);
    for (int t = 0; t < p - 1; ++t) {
      obs::count(obs::Counter::kCollSegments);
      send_owned(right, internal_tag::kRingAg, std::move(carry));
      const int rb = (rank_ - 1 - t + 2 * p) % p;
      const auto [off, len] = block_range(rb, local.size(), p);
      std::vector<T> inc = coll_recv_typed<std::vector<T>>(
          left, internal_tag::kRingAg, "ring_allreduce");
      if (inc.size() != len) {
        throw UsageError(
            "ring_allreduce: ranks contributed different vector lengths");
      }
      std::copy(inc.begin(), inc.end(),
                local.begin() + static_cast<std::ptrdiff_t>(off));
      count_payload_copy(len * sizeof(T));
      carry = std::move(inc);
    }
    return local;
  }

  /// Inclusive prefix (MPI_Scan): rank r receives op over ranks 0..r.
  template <typename T>
  T scan(const T& local, const Op<T>& op) const {
    T acc = local;
    if (rank_ > 0) {
      T prefix = coll_recv_typed<T>(rank_ - 1, internal_tag::kScan, "scan");
      acc = op.combine(prefix, local);
    }
    if (rank_ + 1 < size()) {
      send_encoded(rank_ + 1, internal_tag::kScan, acc);
    }
    return acc;
  }

  /// Exclusive prefix (MPI_Exscan): rank r receives op over ranks 0..r-1;
  /// rank 0 receives the identity. A single forward pass: each rank
  /// receives its exclusive prefix, combines in its own value, and forwards
  /// the inclusive prefix — one message and one wait per rank (the scan-
  /// then-ring-shift formulation costs two of each).
  template <typename T>
  T exscan(const T& local, const Op<T>& op) const {
    T exclusive = op.identity;
    if (rank_ > 0) {
      exclusive = coll_recv_typed<T>(rank_ - 1, internal_tag::kScan, "exscan");
    }
    if (rank_ + 1 < size()) {
      const T inclusive = (rank_ == 0) ? local : op.combine(exclusive, local);
      send_encoded(rank_ + 1, internal_tag::kScan, inclusive);
    }
    return exclusive;
  }

  /// MPI_Scatter: the root splits \p all into size() equal chunks of
  /// \p chunk elements; every rank returns its chunk. \p all is read only
  /// at the root.
  template <typename T>
  std::vector<T> scatter(const std::vector<T>& all, std::size_t chunk, int root) const {
    check_peer(root, "scatter");
    if (rank_ == root) {
      if (all.size() != chunk * static_cast<std::size_t>(size())) {
        throw UsageError("scatter: root buffer must hold size()*chunk elements");
      }
      std::vector<T> mine;
      for (int r = 0; r < size(); ++r) {
        std::vector<T> piece(all.begin() + static_cast<std::ptrdiff_t>(chunk * r),
                             all.begin() + static_cast<std::ptrdiff_t>(chunk * (r + 1)));
        if (r == root) {
          mine = std::move(piece);
        } else {
          // The slice copy above is the only copy: the piece itself is
          // parked (large) or encoded into the envelope (small).
          send_owned(r, internal_tag::kScatter, std::move(piece));
        }
      }
      return mine;
    }
    return coll_recv_typed<std::vector<T>>(root, internal_tag::kScatter,
                                           "scatter");
  }

  /// MPI_Gather/MPI_Gatherv: the root returns every rank's vector
  /// concatenated in rank order; other ranks return an empty vector.
  /// Contributions may differ in length (gatherv semantics).
  template <typename T>
  std::vector<T> gather(const std::vector<T>& mine, int root) const {
    check_peer(root, "gather");
    if (rank_ != root) {
      send_encoded(root, internal_tag::kGather, mine);
      return {};
    }
    std::vector<T> all;
    for (int r = 0; r < size(); ++r) {
      if (r == root) {
        all.insert(all.end(), mine.begin(), mine.end());
      } else {
        auto piece = coll_recv_typed<std::vector<T>>(r, internal_tag::kGather,
                                                     "gather");
        all.insert(all.end(), piece.begin(), piece.end());
      }
    }
    return all;
  }

  /// MPI_Gatherv by ownership transfer: each rank *moves* its contribution
  /// in, so a large vector travels through the rendezvous with zero
  /// intermediate copies (only the root's final concatenation copies, per
  /// unsafe_mpi's gatherv). The root returns every contribution in rank
  /// order; when \p counts is non-null it receives the per-rank element
  /// counts (the displacement vector's building block). Non-root ranks
  /// return an empty vector and leave \p counts untouched.
  template <typename T>
  std::vector<T> gatherv(std::vector<T> mine, int root,
                         std::vector<std::size_t>* counts = nullptr) const {
    check_peer(root, "gatherv");
    obs::SpanScope coll{obs::SpanKind::kCollective, "gatherv", root};
    if (rank_ != root) {
      send_owned(root, internal_tag::kGather, std::move(mine));
      return {};
    }
    if (counts != nullptr) counts->assign(static_cast<std::size_t>(size()), 0);
    std::vector<T> all;
    for (int r = 0; r < size(); ++r) {
      std::vector<T> piece =
          (r == root) ? std::move(mine)
                      : coll_recv_typed<std::vector<T>>(r, internal_tag::kGather,
                                                        "gatherv");
      if (counts != nullptr) (*counts)[static_cast<std::size_t>(r)] = piece.size();
      all.insert(all.end(), piece.begin(), piece.end());
    }
    return all;
  }

  /// MPI_Allgatherv: gatherv to rank 0, then broadcast the concatenation
  /// (and the counts, when requested) to every rank.
  template <typename T>
  std::vector<T> allgatherv(std::vector<T> mine,
                            std::vector<std::size_t>* counts = nullptr) const {
    std::vector<T> all = gatherv(std::move(mine), 0, counts);
    all = broadcast(std::move(all), 0);
    if (counts != nullptr) *counts = broadcast(std::move(*counts), 0);
    return all;
  }

  /// MPI_Allgather: gather at rank 0, then broadcast to all.
  template <typename T>
  std::vector<T> allgather(const std::vector<T>& mine) const {
    std::vector<T> all = gather(mine, 0);
    return broadcast(std::move(all), 0);
  }

  /// Scalar allgather convenience: index r holds rank r's value.
  template <typename T>
  std::vector<T> allgather(const T& mine) const {
    return allgather(std::vector<T>{mine});
  }

  /// MPI_Alltoall: \p per_dest[r] is sent to rank r; the returned vector's
  /// element r is what rank r sent to this rank.
  template <typename T>
  std::vector<std::vector<T>> alltoall(const std::vector<std::vector<T>>& per_dest) const {
    if (per_dest.size() != static_cast<std::size_t>(size())) {
      throw UsageError("alltoall: need exactly size() outgoing buffers");
    }
    for (int r = 0; r < size(); ++r) {
      if (r == rank_) continue;
      send_encoded(r, internal_tag::kAlltoall,
                   per_dest[static_cast<std::size_t>(r)]);
    }
    std::vector<std::vector<T>> in(static_cast<std::size_t>(size()));
    in[static_cast<std::size_t>(rank_)] = per_dest[static_cast<std::size_t>(rank_)];
    for (int r = 0; r < size(); ++r) {
      if (r == rank_) continue;
      in[static_cast<std::size_t>(r)] = coll_recv_typed<std::vector<T>>(
          r, internal_tag::kAlltoall, "alltoall");
    }
    return in;
  }

  /// Pre-serialized alltoall: each outgoing Payload travels as-is (identity
  /// codec), *moved* into its envelope (small) or parked whole (large) and
  /// moved back out on receive — no copy anywhere. This is the mapreduce
  /// shuffle path, now zero-copy for spill-sized partitions.
  std::vector<Payload> alltoall(std::vector<Payload> per_dest) const {
    if (per_dest.size() != static_cast<std::size_t>(size())) {
      throw UsageError("alltoall: need exactly size() outgoing buffers");
    }
    for (int r = 0; r < size(); ++r) {
      if (r == rank_) continue;
      send_payload(r, internal_tag::kAlltoall,
                   std::move(per_dest[static_cast<std::size_t>(r)]));
    }
    std::vector<Payload> in(static_cast<std::size_t>(size()));
    in[static_cast<std::size_t>(rank_)] =
        std::move(per_dest[static_cast<std::size_t>(rank_)]);
    for (int r = 0; r < size(); ++r) {
      if (r == rank_) continue;
      in[static_cast<std::size_t>(r)] =
          coll_recv_typed<Payload>(r, internal_tag::kAlltoall, "alltoall");
    }
    return in;
  }
  /// @}

  /// \name Communicator management
  /// @{

  /// MPI_Comm_split: ranks sharing a color form a new communicator,
  /// ordered by (key, old rank). Collective over this communicator.
  Communicator split(int color, int key) const;

  /// MPI_Comm_dup: same group, fresh tag namespace.
  Communicator dup() const;
  /// @}

  /// \name Checkpoint/restart (pml::ckpt)
  /// @{

  /// Collective checkpoint of \p state under \p key. With checkpointing
  /// off (no ckpt::Scope and no RunOptions::checkpoint_interval) this is
  /// free: one pointer test, no traffic. When on:
  ///
  ///   - On the first call after a restart, overwrites \p state with the
  ///     rank's snapshot from the last committed cut and returns true —
  ///     the program resumes from there instead of recomputing.
  ///   - Every interval-th call commits a globally consistent cut: each
  ///     rank serializes \p state, the group runs an entry barrier (after
  ///     which — sends being synchronous deposits — every pre-cut message
  ///     already sits in some mailbox), each rank snapshots its own
  ///     mailbox and its parked rendezvous bodies as the channel state,
  ///     stages the lot, runs an exit barrier, and rank 0 seals the cut.
  ///     Returns false; \p state is unchanged.
  ///   - Off-interval calls just advance the call counter.
  ///
  /// World-communicator collectives only (a cut of a sub-group would miss
  /// in-flight traffic from outside it): calling on a split/dup throws
  /// UsageError. T must round-trip through its Codec.
  template <typename T>
  bool checkpoint(const std::string& key, T& state) const {
    if (state_->ckpt_store == nullptr) return false;
    ckpt_check_world();
    Payload restored;
    if (ckpt_take_restore(restored)) {
      state = decode_counted<T>(std::move(restored));
      return true;
    }
    if (!ckpt_tick()) return false;
    Payload bytes = Codec<T>::encode(state);
    count_payload_copy(bytes.size());
    ckpt_commit(key, std::move(bytes));
    return false;
  }
  /// @}

  /// \name Internal
  /// @{
  Communicator(std::shared_ptr<detail::RuntimeState> state, int context,
               std::vector<int> group, int rank)
      : state_(std::move(state)), context_(context), group_(std::move(group)), rank_(rank) {}

  int context() const noexcept { return context_; }
  /// @}

 private:
  Mailbox& my_mailbox() const {
    return *state_->mailboxes[static_cast<std::size_t>(group_[static_cast<std::size_t>(rank_)])];
  }

  void deliver(int dest, Envelope e) const {
    state_->mailboxes[static_cast<std::size_t>(group_[static_cast<std::size_t>(dest)])]
        ->deliver(std::move(e));
  }

  /// Turns a matched envelope into a T: decodes an eager body, or claims
  /// an RTS's parked body (zero-copy when T is the type the sender moved
  /// in). Fills \p status — for a claim, with the parked buffer's size —
  /// and fires the ssend/send_with_retry ack: the claim is the moment a
  /// rendezvous message counts as matched. Empty for a *stale* RTS
  /// (duplicated by fault injection, or withdrawn by a retrying sender),
  /// which the caller skips.
  template <typename T>
  std::optional<T> take(Envelope&& e, Status* status) const {
    std::optional<RendezvousTable::Parked> claimed;
    if (e.rts) {
      claimed = claim_rts(e);
      if (!claimed) return std::nullopt;
    }
    if (status != nullptr) {
      *status = Status{e.source, e.tag, claimed ? claimed->bytes : e.data.size()};
    }
    if (e.wants_ack) state_->acknowledge(e.ack_id);
    if (claimed) return take_claimed<T>(std::move(*claimed));
    return decode_counted<T>(std::move(e.data));
  }

  /// Rejects a backoff schedule whose wait slices cannot grow past zero:
  /// the retry loops would resend or re-poll without waiting.
  static void check_backoff(const RetryPolicy& policy, const char* what);

  /// \name Eager/rendezvous transport plumbing
  /// The copy accounting contract: every payload-plane memcpy of a body
  /// larger than Payload::kInlineBytes — encode, decode, forward, or
  /// claim-fallback — passes through count_payload_copy, so
  /// obs::Counter::kPayloadBytesCopied == 0 is a machine-checked statement
  /// that a transfer was zero-copy.
  /// @{

  /// Counts one payload-plane copy of \p bytes (spilled bodies only; the
  /// 64-byte inline class is a register-sized move, not a data-plane copy).
  static void count_payload_copy(std::size_t bytes) {
    if (bytes > Payload::kInlineBytes) {
      obs::count(obs::Counter::kPayloadBytesCopied, bytes);
    }
  }

  /// Codec decode with copy accounting. Decoding into Payload is an
  /// identity move and counts nothing.
  template <typename T>
  static T decode_counted(Payload&& bytes) {
    if constexpr (!std::is_same_v<T, Payload>) {
      count_payload_copy(bytes.size());
    }
    return Codec<T>::decode(std::move(bytes));
  }

  /// Routes an already-encoded body: eager at or below the threshold,
  /// park + RTS above it. \p ack_id != 0 requests a receiver ack
  /// (ssend); for a rendezvous body the ack fires at claim time.
  void send_payload(int dest, int tag, Payload&& bytes,
                    std::uint64_t ack_id = 0) const;

  /// Stamps \p parked as this rank's body for (dest, tag), parks it under
  /// a fresh ticket and returns the handle its RTS envelopes carry.
  RendezvousHandle park_rts(int dest, int tag,
                            RendezvousTable::Parked&& parked) const;

  /// park_rts(), then deposits the RTS envelope.
  void send_rts(int dest, int tag, RendezvousTable::Parked&& parked,
                std::uint64_t ack_id = 0) const;

  /// Resolves a matched RTS envelope to its parked body. Empty means the
  /// RTS was stale (duplicated or withdrawn) — the caller keeps waiting.
  std::optional<RendezvousTable::Parked> claim_rts(const Envelope& e) const;

  /// Encode + copy-accounting + routed send: the one-liner the collective
  /// algorithms use for their typed hops.
  template <typename V>
  void send_encoded(int dest, int tag, const V& value) const {
    Payload bytes = Codec<V>::encode(value);
    count_payload_copy(bytes.size());
    send_payload(dest, tag, std::move(bytes));
  }

  /// Ownership-transfer send for a contiguous container (std::vector<T>,
  /// std::string): small bodies encode eagerly; above the threshold the
  /// container itself is parked and its heap buffer becomes the message
  /// body — zero copies.
  template <typename V>
  void send_owned(int dest, int tag, V&& container) const {
    using Box = std::remove_reference_t<V>;
    const std::size_t nbytes = byte_size(container);
    if (nbytes <= state_->eager_bytes) {
      Payload bytes = Codec<Box>::encode(container);
      count_payload_copy(bytes.size());
      send_payload(dest, tag, std::move(bytes));
      return;
    }
    send_rts(dest, tag, RendezvousTable::Parked::owning(std::move(container)));
  }

  /// Moves a claimed body out as T: same-type claims transfer the buffer
  /// (zero-copy); a Payload park decodes with one copy; a mismatched
  /// typed park materializes the raw bytes first (two copies — the slow
  /// path a type-punning receiver pays).
  template <typename T>
  static T take_claimed(RendezvousTable::Parked&& parked) {
    if (T* held = std::any_cast<T>(&parked.storage)) return std::move(*held);
    if constexpr (!std::is_same_v<T, Payload>) {
      if (Payload* bytes = std::any_cast<Payload>(&parked.storage)) {
        return decode_counted<T>(std::move(*bytes));
      }
    }
    Payload copy;
    copy.append(parked.data, parked.bytes);
    count_payload_copy(copy.size());
    return decode_counted<T>(std::move(copy));
  }

  static std::size_t byte_size(const std::string& s) noexcept { return s.size(); }
  template <typename T>
  static std::size_t byte_size(const std::vector<T>& v) noexcept {
    return v.size() * sizeof(T);
  }

  /// One internal collective receive, decoded as T (zero-copy for
  /// same-type claims). Unbounded when no collective timeout is configured
  /// (RunOptions::collective_timeout / PML_MP_COLLECTIVE_TIMEOUT_MS);
  /// bounded otherwise, converting silence past the budget into a
  /// RuntimeFault naming the silent rank, its node, and any ranks fault
  /// injection crashed — instead of hanging the job. \p what names the
  /// collective for the diagnostic.
  template <typename T>
  T coll_recv_typed(int source, int tag, const char* what) const {
    const auto budget = state_->collective_timeout;
    if (budget.count() <= 0) return recv<T>(source, tag);
    auto value = recv_for<T>(budget, source, tag);
    if (!value) throw_collective_timeout(source, what);
    return std::move(*value);
  }
  /// @}

  void check_peer(int r, const char* what) const;
  void check_source(int r, const char* what) const;
  static void check_tag(int tag);
  static int next_pow2_at_least(int p) noexcept;

  [[noreturn]] void throw_collective_timeout(int source, const char* what) const;

  /// \name Checkpoint protocol plumbing (see checkpoint())
  /// @{
  void ckpt_check_world() const;            ///< World comm or UsageError.
  bool ckpt_take_restore(Payload& out) const;  ///< Pending restore -> blob.
  bool ckpt_tick() const;                   ///< Advance counter; commit now?
  void ckpt_commit(const std::string& key, Payload&& blob) const;
  /// Dissemination barrier over trusted deposits: checkpoint control
  /// traffic must not be dropped/duplicated/delayed by fault injection
  /// (a lost token would stall every commit under drop faults), while the
  /// receives still pass the crash checkpoint — victims die *inside* the
  /// protocol and recovery takes over.
  void ckpt_barrier(int base_tag, const char* what) const;
  static bool is_ckpt_tag(int tag) noexcept {
    return tag >= internal_tag::kCkptRelease && tag < internal_tag::kCkptEnd;
  }
  /// @}

  /// \name Bandwidth-optimal collective plumbing
  /// @{

  /// Elementwise acc[i] = op.combine(acc[i], in[i]) over [0, n): one bulk
  /// call when the op supplies combine_n, a per-element loop otherwise.
  template <typename T>
  static void combine_range(const Op<T>& op, T* acc, const T* in, std::size_t n) {
    if (op.combine_n) {
      op.combine_n(acc, in, n);
      return;
    }
    for (std::size_t i = 0; i < n; ++i) acc[i] = op.combine(acc[i], in[i]);
  }

  /// (offset, length) of ring block \p b in an n-element vector split
  /// across p ranks: the first n%p blocks get one extra element.
  static std::pair<std::size_t, std::size_t> block_range(int b, std::size_t n,
                                                         int p) noexcept {
    const std::size_t base = n / static_cast<std::size_t>(p);
    const std::size_t rem = n % static_cast<std::size_t>(p);
    const std::size_t ub = static_cast<std::size_t>(b);
    return {base * ub + std::min(ub, rem), base + (ub < rem ? 1 : 0)};
  }

  /// The ring reduce-scatter kernel: p-1 steps, each sending one block
  /// right and combining the block arriving from the left *into the
  /// incoming buffer in place*, then forwarding it by move — so transport
  /// above the eager threshold is zero-copy and the only payload-plane
  /// copies are the initial own-block slice and (optionally) writing the
  /// reduced block home into \p local. Returns the fully reduced block this
  /// rank owns (block rank_). Caller guarantees op.commutative and p >= 2.
  template <typename T>
  std::vector<T> ring_reduce_scatter_inplace(std::vector<T>& local,
                                             const Op<T>& op, const char* what,
                                             bool write_home) const {
    const int p = size();
    const int left = (rank_ - 1 + p) % p;
    const int right = (rank_ + 1) % p;
    std::vector<T> carry;
    for (int t = 0; t < p - 1; ++t) {
      obs::count(obs::Counter::kCollSegments);
      if (t == 0) {
        // Block (rank_ - 1) starts here and ends, fully reduced, at its
        // owner after p-1 hops. The slice is the phase's one send-side copy.
        const auto [off, len] = block_range(left, local.size(), p);
        std::vector<T> slice(
            local.begin() + static_cast<std::ptrdiff_t>(off),
            local.begin() + static_cast<std::ptrdiff_t>(off + len));
        count_payload_copy(len * sizeof(T));
        send_owned(right, internal_tag::kRingRs, std::move(slice));
      } else {
        send_owned(right, internal_tag::kRingRs, std::move(carry));
      }
      const int rb = (rank_ - 2 - t + 2 * p) % p;
      const auto [off, len] = block_range(rb, local.size(), p);
      std::vector<T> inc = coll_recv_typed<std::vector<T>>(
          left, internal_tag::kRingRs, what);
      if (inc.size() != len) {
        throw UsageError(std::string(what) +
                         ": ranks contributed different vector lengths");
      }
      combine_range(op, inc.data(), local.data() + off, len);
      obs::count(obs::Counter::kCombines);
      carry = std::move(inc);
    }
    if (write_home) {
      const auto [off, len] = block_range(rank_, local.size(), p);
      std::copy(carry.begin(), carry.end(),
                local.begin() + static_cast<std::ptrdiff_t>(off));
      count_payload_copy(len * sizeof(T));
    }
    return carry;
  }

  /// reduce_scatter for non-commutative ops: tree-reduce to rank 0 (rank
  /// combine order preserved), then deal out the blocks.
  template <typename T>
  std::vector<T> reduce_scatter_via_tree(std::vector<T> local,
                                         const Op<T>& op) const {
    obs::SpanScope coll{obs::SpanKind::kCollective, "reduce-scatter"};
    const int p = size();
    const std::size_t n = local.size();
    std::vector<T> full = reduce(std::move(local), op, 0);
    if (rank_ != 0) {
      return coll_recv_typed<std::vector<T>>(0, internal_tag::kRingRs,
                                             "reduce_scatter");
    }
    for (int r = 1; r < p; ++r) {
      const auto [off, len] = block_range(r, n, p);
      std::vector<T> piece(full.begin() + static_cast<std::ptrdiff_t>(off),
                           full.begin() + static_cast<std::ptrdiff_t>(off + len));
      count_payload_copy(len * sizeof(T));
      send_owned(r, internal_tag::kRingRs, std::move(piece));
    }
    const auto [off, len] = block_range(0, n, p);
    std::vector<T> mine(full.begin() + static_cast<std::ptrdiff_t>(off),
                        full.begin() + static_cast<std::ptrdiff_t>(off + len));
    count_payload_copy(len * sizeof(T));
    return mine;
  }

  /// Absolute ranks of vr's binomial-tree children under \p root, in the
  /// high-mask-first order the whole-body broadcast sends.
  std::vector<int> bcast_children(int vr, int root) const;

  /// @}

  /// The binomial-tree reduction shared by scalar and vector reduce.
  template <typename V, typename Merge>
  V reduce_generic(V local, Merge merge, int root, pml::Trace* trace) const {
    check_peer(root, "reduce");
    obs::SpanScope coll{obs::SpanKind::kCollective, "reduce", root};
    const int p = size();
    const int vr = (rank_ - root + p) % p;
    int round = 0;
    for (int mask = 1; mask < p; mask <<= 1, ++round) {
      if ((vr & mask) != 0) {
        const int parent = ((vr - mask) + root) % p;
        send_copy(parent, internal_tag::kReduce, local);
        break;  // sent our subtree's partial upward; done
      }
      if (vr + mask < p) {
        const int child = ((vr + mask) + root) % p;
        V incoming =
            coll_recv_typed<V>(child, internal_tag::kReduce, "reduce");
        merge(local, incoming);
        obs::count(obs::Counter::kCombines);
        if (trace != nullptr) trace->record(rank_, "combine", round, child);
      }
    }
    return local;
  }

  /// A tree hop: sends \p dest a copy of \p value, which the sender keeps
  /// (a reduce partial is what reduce returns off-root; a broadcast value
  /// goes to every child). A trivially copyable vector above the eager
  /// threshold ships its copy by ownership transfer, so the hop costs one
  /// payload copy and the receiver claims the body without a decode.
  template <typename V>
  void send_copy(int dest, int tag, const V& value) const {
    send_encoded(dest, tag, value);
  }
  template <typename T>
  void send_copy(int dest, int tag, const std::vector<T>& value) const {
    if constexpr (std::is_trivially_copyable_v<T>) {
      if (byte_size(value) > state_->eager_bytes) {
        std::vector<T> copy = value;
        count_payload_copy(byte_size(copy));
        send_owned(dest, tag, std::move(copy));
        return;
      }
    }
    send_encoded(dest, tag, value);
  }

  std::shared_ptr<detail::RuntimeState> state_;
  int context_;
  std::vector<int> group_;  ///< group rank -> world rank
  int rank_;                ///< my rank within the group
};

}  // namespace pml::mp
