#include "mp/communicator.hpp"

#include <algorithm>

#include "ckpt/ckpt.hpp"
#include "fault/fault.hpp"
#include "smp/wtime.hpp"

namespace pml::mp {

std::string Communicator::processor_name() const {
  const int world = group_[static_cast<std::size_t>(rank_)];
  return state_->cluster.processor_name(world, state_->nprocs);
}

int Communicator::world_rank(int group_rank) const {
  check_peer(group_rank, "world_rank");
  return group_[static_cast<std::size_t>(group_rank)];
}

std::vector<int> Communicator::node_mates() const {
  const int world = group_[static_cast<std::size_t>(rank_)];
  return state_->cluster.node_mates(world, state_->nprocs);
}

double Communicator::wtime() const { return pml::smp::wtime() - state_->start_time; }

std::optional<Status> Communicator::probe(int source, int tag) const {
  check_source(source, "probe");
  return my_mailbox().probe(context_, source, tag);
}

void Communicator::check_peer(int r, const char* what) const {
  if (r < 0 || r >= size()) {
    throw UsageError(std::string(what) + ": rank " + std::to_string(r) +
                     " out of range [0, " + std::to_string(size()) + ")");
  }
}

void Communicator::check_source(int r, const char* what) const {
  if (r == kAnySource) return;
  check_peer(r, what);
}

void Communicator::check_tag(int tag) {
  if (tag != kAnyTag && (tag < 0 || tag > kMaxUserTag)) {
    throw UsageError("tag " + std::to_string(tag) + " out of user tag range");
  }
}

int Communicator::next_pow2_at_least(int p) noexcept {
  int v = 1;
  while (v < p) v <<= 1;
  return v;
}

void Communicator::send_payload(int dest, int tag, Payload&& bytes,
                                std::uint64_t ack_id) const {
  if (bytes.size() <= state_->eager_bytes) {
    Envelope e{context_, rank_, tag, std::move(bytes)};
    if (ack_id != 0) {
      e.wants_ack = true;
      e.ack_id = ack_id;
    }
    deliver(dest, std::move(e));
    return;
  }
  send_rts(dest, tag, RendezvousTable::Parked::owning(std::move(bytes)), ack_id);
}

RendezvousHandle Communicator::park_rts(int dest, int tag,
                                        RendezvousTable::Parked&& parked) const {
  parked.sender = rank_;
  parked.dest = dest;
  parked.tag = tag;
  parked.context = context_;
  RendezvousHandle handle;
  handle.bytes = parked.bytes;
  handle.ticket = state_->rendezvous.park(std::move(parked));
  obs::count(obs::Counter::kRdvParked);
  return handle;
}

void Communicator::send_rts(int dest, int tag, RendezvousTable::Parked&& parked,
                            std::uint64_t ack_id) const {
  obs::SpanScope span{obs::SpanKind::kRendezvous, "rdv-park", dest,
                      static_cast<std::int64_t>(parked.bytes)};
  Envelope e{context_, rank_, tag,
             Codec<RendezvousHandle>::encode(park_rts(dest, tag, std::move(parked)))};
  e.rts = true;
  if (ack_id != 0) {
    e.wants_ack = true;
    e.ack_id = ack_id;
  }
  deliver(dest, std::move(e));
}

std::optional<RendezvousTable::Parked> Communicator::claim_rts(
    const Envelope& e) const {
  const RendezvousHandle handle = Codec<RendezvousHandle>::decode(e.data);
  obs::SpanScope span{obs::SpanKind::kRendezvous, "rdv-claim", e.source,
                      static_cast<std::int64_t>(handle.bytes)};
  auto claimed = state_->rendezvous.claim(handle.ticket);
  if (!claimed) {
    // Stale control envelope: its ticket was already claimed (a duplicated
    // RTS) or withdrawn (a retrying sender that gave up). No body can ever
    // arrive for it — treat it as never delivered.
    obs::count(obs::Counter::kRdvStale);
    return std::nullopt;
  }
  obs::count(obs::Counter::kRdvBytes, claimed->bytes);
  return claimed;
}

void Communicator::check_backoff(const RetryPolicy& policy, const char* what) {
  if (policy.backoff_multiplier < 1) {
    throw UsageError(std::string(what) + ": backoff_multiplier must be at least 1");
  }
  if (policy.max_backoff.count() <= 0) {
    throw UsageError(std::string(what) + ": max_backoff must be positive");
  }
}

std::vector<int> Communicator::bcast_children(int vr, int root) const {
  const int p = size();
  std::vector<int> kids;
  for (int mask = next_pow2_at_least(p) >> 1; mask >= 1; mask >>= 1) {
    // Child exists iff mask is above vr's lowest set bit and in range.
    if ((vr & (mask - 1)) == 0 && (vr & mask) == 0 && vr + mask < p) {
      kids.push_back((vr + mask + root) % p);
    }
  }
  return kids;
}

void Communicator::throw_collective_timeout(int source, const char* what) const {
  const int world = group_[static_cast<std::size_t>(source)];
  std::string msg = std::string("collective timeout: ") + what + " at rank " +
                    std::to_string(rank_) + " waited " +
                    std::to_string(state_->collective_timeout.count()) +
                    " ms for rank " + std::to_string(source) + " (world rank " +
                    std::to_string(world) + " on " +
                    state_->cluster.processor_name(world, state_->nprocs) +
                    "), which never answered";
  const std::vector<int> dead = fault::crashed_ranks();
  if (!dead.empty()) {
    msg += "; fault injection crashed rank(s):";
    for (int r : dead) msg += " " + std::to_string(r);
  }
  throw RuntimeFault(msg);
}

bool Communicator::barrier_for(std::chrono::milliseconds timeout) const {
  // Flat two-phase barrier with a deadline: everyone reports to rank 0,
  // rank 0 waits out the budget, then releases everyone with the verdict.
  obs::SpanScope coll{obs::SpanKind::kCollective, "mp-barrier-for"};
  const int p = size();
  if (p == 1) return true;
  if (rank_ != 0) {
    deliver(0, Envelope{context_, rank_, internal_tag::kBarrierBase, Payload{}});
    // The release gets the root's whole collection budget plus slack for
    // the release hop; a silent root (crashed?) degrades rather than hangs.
    const auto verdict = recv_for<int>(timeout * 2 + std::chrono::milliseconds(100), 0,
                                       internal_tag::kBarrierBase);
    return verdict && *verdict != 0;
  }
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  bool all = true;
  for (int r = 1; r < p; ++r) {
    const auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    // Budget spent (<= 0): recv_for polls, so tokens already queued still
    // count as arrived.
    if (!recv_for<Payload>(remaining, r, internal_tag::kBarrierBase)) all = false;
  }
  const Payload verdict = Codec<int>::encode(all ? 1 : 0);
  for (int r = 1; r < p; ++r) {
    Payload copy = verdict;
    send_payload(r, internal_tag::kBarrierBase, std::move(copy));
  }
  return all;
}

void Communicator::barrier() const {
  // Dissemination barrier: in round k each rank sends a token to
  // (rank + 2^k) mod p and awaits one from (rank - 2^k) mod p. After
  // ceil(lg p) rounds every rank transitively heard from every other.
  obs::SpanScope coll{obs::SpanKind::kCollective, "mp-barrier"};
  const int p = size();
  int round = 0;
  for (int dist = 1; dist < p; dist <<= 1, ++round) {
    const int to = (rank_ + dist) % p;
    const int from = (rank_ - dist + p) % p;
    deliver(to, Envelope{context_, rank_, internal_tag::kBarrierBase + round, Payload{}});
    (void)coll_recv_typed<Payload>(from, internal_tag::kBarrierBase + round, "barrier");
  }
}

void Communicator::ckpt_check_world() const {
  if (context_ == 0 && static_cast<int>(group_.size()) == state_->nprocs) return;
  throw UsageError(
      "checkpoint: checkpoints are world-communicator collectives (a cut of "
      "a sub-group would miss in-flight traffic from outside it) — call on "
      "the communicator mp::run passed in, not a split/dup");
}

bool Communicator::ckpt_take_restore(Payload& out) const {
  const auto idx = static_cast<std::size_t>(rank_);
  if (!state_->ckpt_restore_pending[idx]) return false;
  state_->ckpt_restore_pending[idx] = 0;
  const std::vector<std::byte>& blob = state_->ckpt_restore->ranks[idx].state;
  out.append(blob.data(), blob.size());
  // Resume the call counter where the cut committed: the next interval-th
  // call lands on the same indices as the crash-free run.
  state_->ckpt_calls[idx] = state_->ckpt_restore->calls;
  return true;
}

bool Communicator::ckpt_tick() const {
  const auto idx = static_cast<std::size_t>(rank_);
  const std::uint64_t call = ++state_->ckpt_calls[idx];
  return call % state_->ckpt_store->options().interval == 0;
}

void Communicator::ckpt_barrier(int base_tag, const char* what) const {
  const int p = size();
  int round = 0;
  for (int dist = 1; dist < p; dist <<= 1, ++round) {
    const int to = group_[static_cast<std::size_t>((rank_ + dist) % p)];
    const int from = (rank_ - dist + p) % p;
    state_->mailboxes[static_cast<std::size_t>(to)]->deposit_trusted(
        Envelope{context_, rank_, base_tag + round, Payload{}});
    (void)coll_recv_typed<Payload>(from, base_tag + round, what);
  }
}

void Communicator::ckpt_commit(const std::string& key, Payload&& blob) const {
  ckpt::Store* store = state_->ckpt_store;
  const std::uint64_t seq = state_->ckpt_calls[static_cast<std::size_t>(rank_)];
  obs::SpanScope span{obs::SpanKind::kCkpt, "checkpoint", rank_,
                      static_cast<std::int64_t>(seq)};

  ckpt::RankState rs;
  rs.state.assign(blob.data(), blob.data() + blob.size());
  if (fault::active()) {
    // Persist this lane's decision-stream position: injection decisions are
    // pure functions of (seed, lane, index), so restoring these counters on
    // the resumed thread replays the identical fault sequence.
    const fault::LaneCounters lane = fault::lane_snapshot();
    rs.fault_deliveries = lane.deliveries;
    rs.fault_checkpoints = lane.checkpoints;
  }
  if (store->output_mark) {
    rs.output_lines = store->output_mark(group_[static_cast<std::size_t>(rank_)]);
  }

  // Entry barrier: every rank has reached the cut. In-process sends are
  // synchronous deposits, so once this completes every pre-cut message
  // already sits in some mailbox — snapshotting our *own* mailbox between
  // the barriers captures exactly the in-flight channel state, with no
  // message counted twice or dropped by the cut.
  ckpt_barrier(internal_tag::kCkptBarrierA, "checkpoint");

  for (Envelope& e : my_mailbox().snapshot()) {
    if (is_ckpt_tag(e.tag)) continue;  // protocol traffic is not user state
    rs.mailbox.push_back(std::move(e));
  }
  rs.parks = state_->rendezvous.snapshot_for_sender(
      group_[static_cast<std::size_t>(rank_)]);
  store->stage(seq, key, group_[static_cast<std::size_t>(rank_)], std::move(rs));

  // Exit barrier: no rank resumes (and sends post-cut traffic into a
  // mailbox another rank has yet to snapshot) until every slice is staged.
  ckpt_barrier(internal_tag::kCkptBarrierB, "checkpoint");

  // Rank 0 seals the cut on its own thread and then releases every rank,
  // itself included. The others park until the seal lands: the cut is
  // unusable before it is committed, so resuming earlier would let a crash
  // strand us with no cut to replay. Unbounded on purpose — a slow write
  // must not trip the collective timeout, and the watchdog never mistakes
  // it for a deadlock, because the sealing rank is running, not blocked.
  if (rank_ == 0) {
    store->seal(seq, size(), seq);
    for (const int r : group_) {
      state_->mailboxes[static_cast<std::size_t>(r)]->deposit_trusted(
          Envelope{context_, 0, internal_tag::kCkptRelease, Payload{}});
    }
  }
  (void)my_mailbox().receive(context_, 0, internal_tag::kCkptRelease);
}

namespace {

/// The triple every rank contributes to split(); trivially copyable.
struct SplitKey {
  int color;
  int key;
  int old_rank;
};

}  // namespace

Communicator Communicator::split(int color, int key) const {
  // 1. Everyone learns everyone's (color, key, old rank).
  const std::vector<SplitKey> all = allgather(SplitKey{color, key, rank_});

  // 2. My color group, ordered by (key, old rank) — the MPI ordering rule.
  std::vector<SplitKey> mates;
  for (const auto& sk : all) {
    if (sk.color == color) mates.push_back(sk);
  }
  std::sort(mates.begin(), mates.end(), [](const SplitKey& a, const SplitKey& b) {
    return std::tie(a.key, a.old_rank) < std::tie(b.key, b.old_rank);
  });

  std::vector<int> new_group;
  int new_rank = -1;
  int leader_old_rank = mates.front().old_rank;
  for (const auto& sk : mates) {
    if (sk.old_rank == rank_) new_rank = static_cast<int>(new_group.size());
    leader_old_rank = std::min(leader_old_rank, sk.old_rank);
    new_group.push_back(group_[static_cast<std::size_t>(sk.old_rank)]);
  }

  // 3. The group leader (lowest old rank) allocates the fresh context id
  //    and distributes it to its color-mates over the parent communicator.
  int new_context = 0;
  if (rank_ == leader_old_rank) {
    new_context = state_->next_context.fetch_add(1);
    for (const auto& sk : mates) {
      if (sk.old_rank != rank_) {
        send_encoded(sk.old_rank, internal_tag::kSplit, new_context);
      }
    }
  } else {
    new_context =
        coll_recv_typed<int>(leader_old_rank, internal_tag::kSplit, "split");
  }

  return Communicator(state_, new_context, std::move(new_group), new_rank);
}

Communicator Communicator::dup() const {
  // Same group and ordering; fresh tag namespace.
  return split(/*color=*/0, /*key=*/rank_);
}

}  // namespace pml::mp
