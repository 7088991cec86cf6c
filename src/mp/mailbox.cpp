#include "mp/mailbox.hpp"

#include <algorithm>
#include <set>

#include "analyze/analyze.hpp"
#include "core/trace.hpp"
#include "fault/fault.hpp"
#include "obs/obs.hpp"
#include "sched/coop.hpp"
#include "sched/sched.hpp"
#include "thread/adaptive_wait.hpp"

namespace pml::mp {

namespace {

[[noreturn]] void throw_shut_down() {
  throw RuntimeFault("receive aborted: message-passing runtime shut down");
}

}  // namespace

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

void Mailbox::restore(Envelope e) { deposit(std::move(e), /*counted=*/false); }

void Mailbox::deposit(Envelope e, bool counted) {
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
  // Snapshot for the trace, recorded after unlock.
  const int from = e.source;
  const std::size_t bytes = trace_ != nullptr ? e.body_bytes() : 0;
  {
    std::lock_guard lock(mu_);
    e.seq = arrival_seq_++;
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
      target->complete(kFilled);
    } else {
      file_locked(std::move(e));
      obs::on_queue_depth(total_queued_);
    }
  }
  // Under cooperative verification receivers re-poll the buckets rather
  // than post handoff entries, so every deposit is their wake signal.
  sched::coop_wake(this);
  // Counted and traced *after* unlock: a slow trace would otherwise
  // serialize every sender into this mailbox.
  if (counted && deliveries_ != nullptr) {
    deliveries_->fetch_add(1, std::memory_order_relaxed);
    if (trace_ != nullptr) {
      trace_->record(from, "message", owner_, static_cast<std::int64_t>(bytes));
    }
  }
}

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
  // Receiver's lane: match count, deliver-to-match latency (registry
  // histogram), and the flow edge's recv half — recorded inside the
  // still-open kRecv span so the trace arrow lands on the receive slice.
  if (obs::active()) {
    obs::count(obs::Counter::kMessagesReceived);
    if (e.send_ns != 0) {
      obs::observe(obs::Metric::kMessageLatency, obs::detail::now_ns() - e.send_ns);
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
  Envelope out;  // NRVO: returned with no move beyond the one into `out`
  (void)receive_into(context, source, tag, std::nullopt, out);
  return out;
}

std::optional<Envelope> Mailbox::receive_for(int context, int source, int tag,
                                             std::chrono::milliseconds timeout) {
  std::optional<Envelope> out(std::in_place);
  if (!receive_into(context, source, tag, timeout, *out)) out.reset();
  return out;
}

std::optional<Envelope> Mailbox::try_receive(int context, int source, int tag) {
  return receive_for(context, source, tag, std::chrono::milliseconds(0));
}

bool Mailbox::receive_into(int context, int source, int tag,
                           std::optional<std::chrono::milliseconds> timeout,
                           Envelope& out) {
  // timeout <= 0 means "poll once": no fault checkpoint, no span, no
  // posted entry, and no analyze timeout event. recv_retry leans on this
  // for its first zero-cost slice.
  if (timeout && timeout->count() <= 0) {
    std::lock_guard lock(mu_);
    return extract_locked(context, source, tag, out);
  }
  if (fault::active()) fault::on_receive_checkpoint();
  // The span opens before the lock so a message that is already queued —
  // the fast path — still records a kRecv span: profile recv-span counts
  // match messages received instead of silently excluding the cheap case.
  // Declared before `lock` so the span closes after the lock is released.
  obs::SpanScope wait{obs::SpanKind::kRecv, timeout ? "receive-for" : "receive", source,
                      tag};
  std::unique_lock lock(mu_);
  if (extract_locked(context, source, tag, out)) return true;
  if (poisoned_) throw_shut_down();
  if (sched::coop_active()) {
    // Cooperative verification: no posted-receive handoff — re-poll the
    // buckets each time a deposit (or poison) wakes this mailbox. Blocking
    // here is the scheduling decision the explorer branches on. A timed
    // block's logical timeout is granted only when no untimed lane can
    // progress — i.e. when this wait would otherwise be part of a
    // deadlock — so bounded receives neither race the clock nor mask real
    // stalls.
    for (;;) {
      const bool timed_out =
          sched::coop_block(this, &lock, /*timed=*/timeout.has_value());
      if (extract_locked(context, source, tag, out)) return true;
      if (poisoned_) throw_shut_down();
      if (timed_out) {
        report_timeout(lock, context, source, tag);
        return false;
      }
    }
  }
  // Post the receive. Invariant: a posted receive exists only while no
  // buffered message matches it — we checked under this same lock — so a
  // deliverer may hand its envelope over directly without overtaking.
  PostedReceive pr{context, source, tag, /*timed=*/timeout.has_value()};
  posted_.push_back(&pr);
  if (timeout) {
    // Deliberately NOT counted as blocked for the deadlock watchdog: a
    // deadline wait recovers on its own, so it is never "stuck". A timed
    // posted receive parks on its condvar (tied to mu_) rather than the
    // state word because atomics have no deadline wait.
    if (!pr.cv.wait_for(lock, *timeout, [&pr] {
          return pr.state.load(std::memory_order_acquire) != kPending;
        })) {
      // Timed out. State flips only under mu_, which we hold: kPending here
      // means no deliverer claimed this entry, so withdrawing it is safe.
      posted_.erase(std::find(posted_.begin(), posted_.end(), &pr));
      report_timeout(lock, context, source, tag);
      return false;
    }
  } else {
    // An indefinite wait: the one kind the deadlock watchdog counts stuck.
    if (blocked_ != nullptr) blocked_->fetch_add(1, std::memory_order_relaxed);
    lock.unlock();
    thread::adaptive_wait_and_advertise(pr.state, kPending, kParked);
    if (blocked_ != nullptr) blocked_->fetch_sub(1, std::memory_order_relaxed);
    // Lock handshake: the waker flips state and notifies while holding mu_,
    // so re-acquiring it here guarantees the waker is done with `pr` before
    // we read the envelope or unwind the stack frame that owns it.
    lock.lock();
  }
  if (pr.state.load(std::memory_order_acquire) == kPoisoned) throw_shut_down();
  note_match_locked(pr.env, source, tag, context);
  out = std::move(pr.env);
  return true;
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
  for (PostedReceive* pr : posted_) pr->complete(kPoisoned);
  posted_.clear();
  sched::coop_wake(this);
}

}  // namespace pml::mp
