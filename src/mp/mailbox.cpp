#include "mp/mailbox.hpp"

#include <algorithm>
#include <set>

#include "analyze/analyze.hpp"
#include "fault/fault.hpp"
#include "obs/obs.hpp"
#include "sched/coop.hpp"
#include "sched/sched.hpp"
#include "thread/adaptive_wait.hpp"

namespace pml::mp {

void Mailbox::deliver(Envelope e) {
  // Fault injection sits in front of the real deposit, on the sender's
  // thread so decisions draw from the sender's lane stream. A dropped
  // message never reaches the analyze/obs delivery events below — to every
  // later observer it was simply never sent, which is exactly the
  // happens-before a lossy network gives you. May throw NodeCrashFault at
  // the *sender* when its node is marked crashed.
  if (fault::active()) {
    const fault::DeliveryFault f =
        fault::on_deliver(owner_, e.source, e.tag, e.context);
    if (f.drop) {
      // Record a dangling flow edge (an emit that never binds to a recv):
      // Perfetto shows the arrow's tail with no head, which is exactly what
      // a dropped message looks like on a wire trace.
      (void)obs::flow_emit(owner_, e.tag, e.body_bytes(), e.rts,
                           /*dropped=*/true);
      return;
    }
    if (f.duplicate) {
      Envelope copy = e;
      deposit(std::move(copy));
    }
  }
  deposit(std::move(e));
}

void Mailbox::deposit_trusted(Envelope e) { deposit(std::move(e)); }

void Mailbox::deposit(Envelope e) {
  // Chaos mode perturbs delivery timing here, before the envelope enters
  // the mailbox: message *arrival order* across senders gets reshuffled
  // while the per-(source, tag) non-overtaking guarantee (arrival-stamp
  // matching below) is untouched.
  sched::point_at(sched::Point::kDelivery, this);
  // Message edge, sender half: the sender's writes up to here happen-before
  // the receive that matches this envelope (acquired at match time).
  e.analyze_id = analyze::on_mp_deliver(owner_, e.source, e.tag, e.context);
  // Runs on the *sender's* thread: the send counter lands in its lane, and
  // the stamp lets the matching receive compute deliver-to-match latency.
  if (obs::active()) {
    e.send_ns = obs::detail::now_ns();
    obs::count(obs::Counter::kMessagesSent);
    // Causal flow edge, emit half. Each deposit gets its own id, so a
    // fault-duplicated message draws two distinguishable arrows.
    e.flow = obs::flow_emit(owner_, e.tag, e.body_bytes(), e.rts);
  }
  DeliveryInfo info;
  bool have_hook;
  {
    std::lock_guard lock(mu_);
    e.seq = arrival_seq_++;
    have_hook = static_cast<bool>(delivered_);
    if (have_hook) info = DeliveryInfo{e.source, e.tag, e.context, e.body_bytes()};
    // A matching posted receive is waiting iff no buffered message could
    // have satisfied it (checked when it posted, under this same lock), so
    // handing the envelope over directly cannot overtake anything. First
    // match in post order, like real MPI's posted-receive queue.
    PostedReceive* target = nullptr;
    if (!posted_.empty()) {
      for (auto it = posted_.begin(); it != posted_.end(); ++it) {
        if (matches(e, (*it)->context, (*it)->source, (*it)->tag)) {
          target = *it;
          posted_.erase(it);
          break;
        }
      }
    }
    if (target != nullptr) {
      // The envelope transits the queue conceptually (the old single-deque
      // implementation enqueued it before the receiver extracted it), so
      // report the transient depth.
      obs::on_queue_depth(total_queued_ + 1);
      target->env = std::move(e);
      // Publish + targeted wake both happen under mu_; the woken receiver
      // re-locks mu_ before touching its PostedReceive, so we cannot be
      // notifying into freed stack memory.
      if (target->timed) {
        target->state.store(kFilled, std::memory_order_release);
        target->cv.notify_one();
      } else if (target->state.exchange(kFilled, std::memory_order_acq_rel) ==
                 kParked) {
        // Wake syscall only when the receiver actually parked; a receiver
        // still in its spin/yield phase sees the exchange on its next load.
        target->state.notify_one();
      }
    } else {
      file_locked(std::move(e));
      obs::on_queue_depth(total_queued_);
    }
  }
  // Under cooperative verification receivers re-poll the buckets rather
  // than post handoff entries, so every deposit is their wake signal.
  sched::coop_wake(this);
  // The progress hook runs *after* unlock with a snapshot taken above: a
  // hook that is slow or that itself touches the mailbox (tracing,
  // watchdog bookkeeping) no longer serializes all senders or deadlocks.
  // Hooks are installed once at runtime startup, before any traffic.
  if (have_hook) delivered_(info);
}

void Mailbox::set_owner(int rank) {
  std::lock_guard lock(mu_);
  owner_ = rank;
}

void Mailbox::set_progress_hooks(std::function<void(int)> block_delta,
                                 std::function<void(const DeliveryInfo&)> delivered) {
  std::lock_guard lock(mu_);
  block_delta_ = std::move(block_delta);
  delivered_ = std::move(delivered);
}

namespace {

/// RAII +1/-1 around a wait, tolerant of an unset hook.
class BlockScope {
 public:
  explicit BlockScope(const std::function<void(int)>& hook) : hook_(hook) {
    if (hook_) hook_(+1);
  }
  ~BlockScope() {
    if (hook_) hook_(-1);
  }
  BlockScope(const BlockScope&) = delete;
  BlockScope& operator=(const BlockScope&) = delete;

 private:
  const std::function<void(int)>& hook_;
};

}  // namespace

std::deque<Envelope>& Mailbox::bucket_for_locked(const MatchKey& key) {
  // One-entry cache: the hot paths (ping-pong, a collective round) hammer
  // a single (context, source, tag), so the common case is a three-int
  // compare instead of a hash probe. Bucket pointers are stable (see the
  // member comment), so the cache never dangles.
  if (cached_bucket_ != nullptr && cached_key_ == key) return *cached_bucket_;
  auto [it, inserted] = store_.try_emplace(key);
  cached_key_ = key;
  cached_bucket_ = &it->second;
  return it->second;
}

std::deque<Envelope>* Mailbox::find_locked(int context, int source, int tag) {
  if (source != kAnySource && tag != kAnyTag) {
    // Exact receive: cache hit or one hash lookup.
    std::deque<Envelope>& bucket = bucket_for_locked(MatchKey{context, source, tag});
    return bucket.empty() ? nullptr : &bucket;
  }
  // Wildcard: earliest arrival among the fronts of all matching non-empty
  // buckets. Each bucket is FIFO, so its front carries the bucket's lowest
  // stamp; taking the global minimum reproduces the old single-deque scan
  // order exactly, which is what the non-overtaking guarantee is stated
  // over.
  std::deque<Envelope>* best = nullptr;
  std::uint64_t best_seq = 0;
  for (auto& [key, bucket] : store_) {
    if (bucket.empty()) continue;
    if (key.context != context) continue;
    if (source != kAnySource && key.source != source) continue;
    if (tag != kAnyTag && key.tag != tag) continue;
    const std::uint64_t seq = bucket.front().seq;
    if (best == nullptr || seq < best_seq) {
      best = &bucket;
      best_seq = seq;
    }
  }
  return best;
}

void Mailbox::file_locked(Envelope&& e) {
  bucket_for_locked(MatchKey{e.context, e.source, e.tag}).push_back(std::move(e));
  ++total_queued_;
}

void Mailbox::note_match_locked(const Envelope& e, int source, int tag,
                                int context) {
  if (analyze::active()) {
    // How many distinct sources could this wildcard receive have matched
    // right now? >= 2 means the match is schedule-dependent.
    std::size_t wild_sources = 0;
    if (source == kAnySource) {
      std::set<int> sources{e.source};
      for (const auto& [key, bucket] : store_) {
        if (bucket.empty()) continue;
        if (key.context != context) continue;
        if (tag != kAnyTag && key.tag != tag) continue;
        sources.insert(key.source);
      }
      wild_sources = sources.size();
    }
    // Message edge, receiver half — must run on the receiving thread so
    // the vector clocks join into the right rank.
    analyze::on_mp_match(e.analyze_id, owner_, e.source, e.tag, e.context,
                         source, wild_sources);
  }
  // Receiver's lane: match count, deliver-to-match latency (counter and
  // registry histogram), and the flow edge's recv half — recorded inside the
  // still-open kRecv span so the trace arrow lands on the receive slice.
  if (obs::active()) {
    obs::count(obs::Counter::kMessagesReceived);
    if (e.send_ns != 0) {
      const std::uint64_t latency = obs::detail::now_ns() - e.send_ns;
      obs::count(obs::Counter::kMessageLatencyNs, latency);
      obs::observe(obs::Metric::kMessageLatency, latency);
    }
    obs::flow_recv(e.flow, e.source, e.tag, e.body_bytes(), e.rts);
  }
}

bool Mailbox::extract_locked(int context, int source, int tag, Envelope& out) {
  std::deque<Envelope>* bucket = find_locked(context, source, tag);
  if (bucket == nullptr) return false;
  out = std::move(bucket->front());
  bucket->pop_front();
  --total_queued_;
  note_match_locked(out, source, tag, context);
  return true;
}

Envelope Mailbox::receive(int context, int source, int tag) {
  if (fault::active()) fault::on_receive_checkpoint();
  Envelope out;  // NRVO: both exits return this object with zero extra moves
  // The span opens before the lock so a message that is already queued —
  // the fast path — still records a kRecv span: profile recv-span counts
  // match messages received instead of silently excluding the cheap case.
  // Declared before `lock` so the span closes after the lock is released.
  obs::SpanScope wait{obs::SpanKind::kRecv, "receive", source, tag};
  std::unique_lock lock(mu_);
  if (extract_locked(context, source, tag, out)) return out;
  if (poisoned_) {
    throw RuntimeFault("receive aborted: message-passing runtime shut down");
  }
  if (sched::coop_active()) {
    // Cooperative verification: no posted-receive handoff — re-poll the
    // buckets each time a deposit (or poison) wakes this mailbox. Blocking
    // here is the scheduling decision the explorer branches on.
    for (;;) {
      sched::coop_block(this, &lock);
      if (extract_locked(context, source, tag, out)) return out;
      if (poisoned_) {
        throw RuntimeFault("receive aborted: message-passing runtime shut down");
      }
    }
  }
  // Post the receive. Invariant: a posted receive exists only while no
  // buffered message matches it — we checked under this same lock — so a
  // deliverer may hand its envelope over directly without overtaking.
  PostedReceive pr{context, source, tag, /*timed=*/false};
  posted_.push_back(&pr);
  BlockScope blocked(block_delta_);
  lock.unlock();
  const std::uint32_t final_state =
      thread::adaptive_wait_and_advertise(pr.state, kPending, kParked);
  // Lock handshake: the waker flips state and notifies while holding mu_,
  // so re-acquiring it here guarantees the waker is done with `pr` before
  // we read the envelope or unwind the stack frame that owns it.
  lock.lock();
  if (final_state == kPoisoned) {
    throw RuntimeFault("receive aborted: message-passing runtime shut down");
  }
  note_match_locked(pr.env, source, tag, context);
  out = std::move(pr.env);
  return out;
}

std::optional<Envelope> Mailbox::receive_for(int context, int source, int tag,
                                             std::chrono::milliseconds timeout) {
  // timeout <= 0 means "poll once": no deadline arithmetic, no posted
  // entry, no analyze timeout event — exactly try_receive semantics.
  // recv_retry leans on this for its first zero-cost slice.
  if (timeout.count() <= 0) return try_receive(context, source, tag);
  if (fault::active()) fault::on_receive_checkpoint();
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  std::optional<Envelope> out(std::in_place);
  // Opened before the lock for the same reason as receive(): the fast path
  // must record its span too, and the span must close after unlock.
  obs::SpanScope wait{obs::SpanKind::kRecv, "receive-for", source, tag};
  std::unique_lock lock(mu_);
  if (extract_locked(context, source, tag, *out)) return out;
  if (poisoned_) {
    throw RuntimeFault("receive aborted: message-passing runtime shut down");
  }
  if (sched::coop_active()) {
    for (;;) {
      // Timed cooperative block: the logical timeout is granted only when
      // no untimed lane can progress — i.e. when this wait would otherwise
      // be part of a deadlock — so bounded receives neither race the clock
      // nor mask real stalls.
      const bool timed_out = sched::coop_block(this, &lock, /*timed=*/true);
      if (extract_locked(context, source, tag, *out)) return out;
      if (poisoned_) {
        throw RuntimeFault("receive aborted: message-passing runtime shut down");
      }
      if (!timed_out) continue;
      report_timeout(lock, context, source, tag);
      return std::nullopt;
    }
  }
  PostedReceive pr{context, source, tag, /*timed=*/true};
  posted_.push_back(&pr);
  // Deliberately NOT counted as blocked for the deadlock watchdog: a
  // deadline wait recovers on its own, so it is never "stuck". A timed
  // posted receive parks on its condvar (tied to mu_) rather than the
  // state word because atomics have no deadline wait.
  const bool filled = pr.cv.wait_until(lock, deadline, [&pr] {
    return pr.state.load(std::memory_order_acquire) != kPending;
  });
  if (!filled) {
    // Timed out. State flips only under mu_, which we hold: kPending here
    // means no deliverer claimed this entry, so withdrawing it is safe.
    posted_.erase(std::find(posted_.begin(), posted_.end(), &pr));
    report_timeout(lock, context, source, tag);
    return std::nullopt;
  }
  if (pr.state.load(std::memory_order_acquire) == kPoisoned) {
    throw RuntimeFault("receive aborted: message-passing runtime shut down");
  }
  note_match_locked(pr.env, source, tag, context);
  *out = std::move(pr.env);
  return out;
}

void Mailbox::report_timeout(std::unique_lock<std::mutex>& lock, int context,
                             int source, int tag) {
  // Near-miss diagnosis: snapshot what WAS queued so the comm lint can say
  // "right source, wrong tag" rather than just "timed out". The snapshot is
  // taken under mu_ but the report runs after unlock — the collector's
  // finding synthesis is slow, and holding mu_ across it would stall every
  // sender into this mailbox.
  if (!analyze::active()) {
    lock.unlock();
    return;
  }
  std::vector<analyze::MsgCoord> present;
  present.reserve(total_queued_);
  for (const auto& [key, bucket] : store_) {
    for (const auto& m : bucket) present.push_back({m.source, m.tag, m.context});
  }
  const int who = owner_;
  lock.unlock();
  analyze::on_mp_timeout(who, source, tag, context, present);
}

std::optional<Envelope> Mailbox::try_receive(int context, int source, int tag) {
  std::optional<Envelope> out(std::in_place);
  std::lock_guard lock(mu_);
  if (!extract_locked(context, source, tag, *out)) out.reset();
  return out;
}

std::optional<Status> Mailbox::probe(int context, int source, int tag) const {
  std::lock_guard lock(mu_);
  auto* self = const_cast<Mailbox*>(this);
  if (std::deque<Envelope>* bucket = self->find_locked(context, source, tag)) {
    const Envelope& e = bucket->front();
    // body_bytes, not data.size(): an RTS envelope's payload is only the
    // rendezvous handle, but the receiver will get the parked body.
    return Status{e.source, e.tag, e.body_bytes()};
  }
  return std::nullopt;
}

std::size_t Mailbox::queued() const {
  std::lock_guard lock(mu_);
  return total_queued_;
}

std::vector<Envelope> Mailbox::snapshot() const {
  std::lock_guard lock(mu_);
  std::vector<Envelope> all;
  all.reserve(total_queued_);
  for (const auto& [key, bucket] : store_) {
    all.insert(all.end(), bucket.begin(), bucket.end());
  }
  std::sort(all.begin(), all.end(),
            [](const Envelope& a, const Envelope& b) { return a.seq < b.seq; });
  return all;
}

void Mailbox::poison() {
  std::lock_guard lock(mu_);
  poisoned_ = true;
  // Targeted wakes under the lock; each woken receiver re-locks mu_ before
  // reading its entry, so the stack frames stay alive until we are done.
  for (PostedReceive* pr : posted_) {
    pr->state.store(kPoisoned, std::memory_order_release);
    if (pr->timed) {
      pr->cv.notify_one();
    } else {
      pr->state.notify_one();
    }
  }
  posted_.clear();
  sched::coop_wake(this);
}

}  // namespace pml::mp
