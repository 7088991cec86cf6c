#include "verify/scheduler.hpp"

#include <sstream>
#include <thread>

namespace pml::verify {

namespace {

constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

/// The slot of the lane this thread registered as (kNoSlot = unmanaged).
/// Thread-local rather than derived from current_ so the abort path —
/// where several lanes may be unwinding at once — still knows who is who.
thread_local std::uint32_t t_slot = kNoSlot;

/// Fairness valve: after this many consecutive decisions by one lane while
/// others are ready, the default policy round-robins. A pure function of
/// execution history, so replay is unaffected.
constexpr std::uint32_t kFairnessLimit = 512;

}  // namespace

Scheduler::Scheduler(const std::vector<Divergence>& forced,
                     std::uint64_t max_steps)
    : max_steps_(max_steps) {
  for (const Divergence& d : forced) forced_[d.index] = d;
  log_.reserve(1024);
}

void Scheduler::begin_main() {
  std::unique_lock<std::mutex> lk(mu_);
  lanes_[0].state = LaneState::kRunning;
  current_ = 0;
  next_slot_ = 1;
  t_slot = 0;
}

void Scheduler::wait_registrations(std::unique_lock<std::mutex>& lk) {
  while (pending_total_ > 0 && !abort_) reg_cv_.wait(lk);
}

std::vector<std::uint32_t> Scheduler::ready_lanes() const {
  std::vector<std::uint32_t> out;
  for (std::uint32_t q = 0; q < next_slot_; ++q) {
    if (lanes_[q].state == LaneState::kReady) out.push_back(q);
  }
  return out;
}

void Scheduler::abort_all(const std::string& kind, const std::string& detail) {
  if (!abort_) {
    terminal_ = {kind, detail};
    abort_ = true;
  }
  for (std::uint32_t q = 0; q < next_slot_; ++q) lanes_[q].cv.notify_all();
  reg_cv_.notify_all();
  join_cv_.notify_all();
}

void Scheduler::charge_step(std::unique_lock<std::mutex>&) {
  if (index_ >= max_steps_) {
    std::ostringstream os;
    os << "decision budget exhausted after " << index_ << " steps";
    abort_all("budget", os.str());
    throw sched::CoopAbort{};
  }
}

std::uint32_t Scheduler::pick_next(std::unique_lock<std::mutex>& lk,
                                   std::uint32_t blocking_lane, bool nothrow) {
  (void)lk;  // held by contract; sweeps mutate lane states under it
  const auto f = forced_.find(index_);
  if (f != forced_.end() && f->second.is_switch) {
    const std::uint32_t want = f->second.value;
    if (want < next_slot_ && lanes_[want].state == LaneState::kReady) {
      return want;
    }
    std::ostringstream os;
    os << "schedule divergence: forced switch at index " << index_
       << " to lane " << want << ", which is not ready";
    abort_all("divergence", os.str());
    if (nothrow) return blocking_lane;
    throw sched::CoopAbort{};
  }
  for (;;) {
    for (std::uint32_t q = 0; q < next_slot_; ++q) {
      if (lanes_[q].state == LaneState::kReady) return q;
    }
    if (pending_total_ > 0) {
      // Spawned lanes have not reached lane_begin yet; they are about to
      // become ready. Declaring a deadlock (or granting a timeout) now
      // would race OS thread startup and make the log nondeterministic.
      wait_registrations(lk);
      if (abort_) {
        if (nothrow) return blocking_lane;
        throw sched::CoopAbort{};
      }
      continue;
    }
    if (progress_ == sweep_progress_) {
      // Every blocked lane re-polled its predicate since the last sweep and
      // blocked again with zero progress: nothing can advance. A lane that
      // blocked with a timeout escape gets it granted now (deterministic:
      // lowest slot); with none, this is the deadlock terminal.
      std::uint32_t granted = kNoSlot;
      for (std::uint32_t q = 0; q < next_slot_; ++q) {
        if (lanes_[q].state == LaneState::kBlocked && lanes_[q].timed) {
          granted = q;
          break;
        }
      }
      if (granted != kNoSlot) {
        lanes_[granted].timeout_granted = true;
        lanes_[granted].state = LaneState::kReady;
        ++progress_;
        continue;
      }
      std::ostringstream os;
      bool lost = false;
      os << "no runnable lane; blocked:";
      for (std::uint32_t q = 0; q < next_slot_; ++q) {
        if (lanes_[q].state == LaneState::kBlocked) {
          os << " " << q;
          if (woken_.count(lanes_[q].resource) != 0) lost = true;
        }
      }
      abort_all(lost ? "lost-signal" : "deadlock", os.str());
      if (nothrow) return blocking_lane;
      throw sched::CoopAbort{};
    }
    sweep_progress_ = progress_;
    for (std::uint32_t q = 0; q < next_slot_; ++q) {
      if (lanes_[q].state == LaneState::kBlocked) {
        lanes_[q].state = LaneState::kReady;
      }
    }
  }
}

bool Scheduler::hand_off_and_park(std::unique_lock<std::mutex>& lk,
                                  std::uint32_t me, std::uint32_t next) {
  consecutive_ = 0;
  current_ = next;
  lanes_[next].state = LaneState::kRunning;
  lanes_[next].cv.notify_all();
  while (lanes_[me].state != LaneState::kRunning && !abort_) {
    lanes_[me].cv.wait(lk);
  }
  return !abort_;
}

void Scheduler::point(sched::Point kind, const void* addr) {
  if (t_slot == kNoSlot) return;
  std::unique_lock<std::mutex> lk(mu_);
  if (abort_) throw sched::CoopAbort{};
  wait_registrations(lk);
  if (abort_) throw sched::CoopAbort{};
  charge_step(lk);
  const std::uint32_t me = t_slot;
  Step s;
  s.index = index_;
  s.lane = me;
  s.kind = StepKind::kPoint;
  s.point = kind;
  s.addr = addr;
  s.write_like = addr != nullptr && verify::write_like(kind);
  s.preemptions_before = preemptions_;
  s.faults_before = faults_used_;
  s.ready = ready_lanes();
  std::uint32_t next = me;
  const auto f = forced_.find(index_);
  if (f != forced_.end() && f->second.is_switch) {
    const std::uint32_t want = f->second.value;
    if (want != me) {
      if (want < next_slot_ && lanes_[want].state == LaneState::kReady) {
        next = want;
        ++preemptions_;
      } else {
        std::ostringstream os;
        os << "schedule divergence: forced preemption at index " << index_
           << " to lane " << want << ", which is not ready";
        abort_all("divergence", os.str());
        throw sched::CoopAbort{};
      }
    }
  } else if (consecutive_ >= kFairnessLimit && !s.ready.empty()) {
    next = s.ready.front();
    for (const std::uint32_t q : s.ready) {
      if (q > me) {
        next = q;
        break;
      }
    }
  }
  s.chosen = next;
  log_.push_back(std::move(s));
  ++index_;
  ++progress_;
  if (next == me) {
    ++consecutive_;
    return;
  }
  lanes_[me].state = LaneState::kReady;
  if (!hand_off_and_park(lk, me, next)) throw sched::CoopAbort{};
}

bool Scheduler::block(const void* resource, std::unique_lock<std::mutex>* held,
                      bool timed) {
  if (t_slot == kNoSlot) {
    // A thread outside the spawn protocol (should not happen; every spawn
    // site registers). Yield so its re-poll loop cannot monopolize a core.
    std::this_thread::yield();
    return false;
  }
  if (held != nullptr) held->unlock();
  bool timeout = false;
  {
    std::unique_lock<std::mutex> lk(mu_);
    if (abort_) throw sched::CoopAbort{};
    wait_registrations(lk);
    if (abort_) throw sched::CoopAbort{};
    charge_step(lk);
    const std::uint32_t me = t_slot;
    Lane& L = lanes_[me];
    if (L.last_block != resource) {
      // Blocking somewhere new after the last block is progress (e.g. a
      // semaphore slot was consumed before blocking on the next stage);
      // re-polling and re-blocking on the same resource is not.
      ++progress_;
      L.last_block = resource;
    }
    L.state = LaneState::kBlocked;
    L.resource = resource;
    L.timed = timed;
    L.timeout_granted = false;
    Step s;
    s.index = index_;
    s.lane = me;
    s.kind = StepKind::kBlock;
    s.addr = resource;
    s.write_like = true;
    s.preemptions_before = preemptions_;
    s.faults_before = faults_used_;
    s.ready = ready_lanes();
    const std::uint32_t next = pick_next(lk, me, /*nothrow=*/false);
    s.chosen = next;
    log_.push_back(std::move(s));
    ++index_;
    consecutive_ = 0;
    if (next == me) {
      // A sweep (or timeout grant) put this very lane back in front:
      // resume immediately and re-poll.
      L.state = LaneState::kRunning;
    } else {
      if (!hand_off_and_park(lk, me, next)) throw sched::CoopAbort{};
    }
    timeout = L.timeout_granted;
    L.timeout_granted = false;
  }
  if (held != nullptr) held->lock();
  return timeout;
}

void Scheduler::wake(const void* resource) {
  std::unique_lock<std::mutex> lk(mu_);
  if (abort_) return;
  woken_.insert(resource);
  ++progress_;
  for (std::uint32_t q = 0; q < next_slot_; ++q) {
    if (lanes_[q].state == LaneState::kBlocked &&
        lanes_[q].resource == resource) {
      lanes_[q].state = LaneState::kReady;
    }
  }
}

void Scheduler::spawned(const void* token, std::uint32_t id_span,
                        std::uint32_t count) {
  std::unique_lock<std::mutex> lk(mu_);
  if (abort_) throw sched::CoopAbort{};
  if (next_slot_ + id_span > kMaxLanes) {
    std::ostringstream os;
    os << "lane-overflow: execution wants more than " << kMaxLanes
       << " lanes";
    abort_all("lane-overflow", os.str());
    throw sched::CoopAbort{};
  }
  Token& t = tokens_[token];
  t.base = next_slot_;
  next_slot_ += id_span;
  t.active += count;
  t.pending += count;
  pending_total_ += count;
  ++progress_;
}

void Scheduler::lane_begin(const void* token, std::uint32_t id) {
  std::unique_lock<std::mutex> lk(mu_);
  const auto it = tokens_.find(token);
  if (it == tokens_.end()) return;  // unknown token: stay unmanaged
  Token& t = it->second;
  const std::uint32_t slot = t.base + id;
  if (slot >= kMaxLanes) return;
  t_slot = slot;
  Lane& L = lanes_[slot];
  L.state = LaneState::kReady;
  L.resource = nullptr;
  L.last_block = nullptr;
  L.timed = false;
  L.timeout_granted = false;
  if (t.pending > 0) --t.pending;
  if (pending_total_ > 0 && --pending_total_ == 0) reg_cv_.notify_all();
  ++progress_;
  while (L.state != LaneState::kRunning && !abort_) L.cv.wait(lk);
  // Under abort the lane free-runs; its first point/block throws CoopAbort.
}

void Scheduler::lane_end(const void* token) {
  std::unique_lock<std::mutex> lk(mu_);
  const std::uint32_t me = t_slot;
  if (me == kNoSlot) return;
  t_slot = kNoSlot;
  Lane& L = lanes_[me];
  L.state = LaneState::kDone;
  ++progress_;
  const auto it = tokens_.find(token);
  if (it != tokens_.end()) {
    Token& t = it->second;
    if (t.active > 0) --t.active;
    if (t.active == 0) {
      join_cv_.notify_all();
      // The parent's cooperative join blocks on the token as a resource.
      woken_.insert(token);
      for (std::uint32_t q = 0; q < next_slot_; ++q) {
        if (lanes_[q].state == LaneState::kBlocked &&
            lanes_[q].resource == token) {
          lanes_[q].state = LaneState::kReady;
        }
      }
    }
  }
  if (abort_) return;
  if (index_ >= max_steps_) {
    abort_all("budget", "decision budget exhausted at lane exit");
    return;
  }
  wait_registrations(lk);
  if (abort_) return;
  Step s;
  s.index = index_;
  s.lane = me;
  s.kind = StepKind::kLaneEnd;
  s.preemptions_before = preemptions_;
  s.faults_before = faults_used_;
  s.ready = ready_lanes();
  const std::uint32_t next = pick_next(lk, me, /*nothrow=*/true);
  if (abort_) return;
  s.chosen = next;
  log_.push_back(std::move(s));
  ++index_;
  consecutive_ = 0;
  current_ = next;
  lanes_[next].state = LaneState::kRunning;
  lanes_[next].cv.notify_all();
  // The dying lane does not park; its thread exits now.
}

void Scheduler::join(const void* token) {
  std::unique_lock<std::mutex> lk(mu_);
  const auto it = tokens_.find(token);
  if (it == tokens_.end()) return;
  const std::uint32_t me = t_slot;
  while (it->second.active > 0) {
    if (abort_ || me == kNoSlot) {
      // Abort teardown: children are unwinding on their own (every parked
      // lane was notified); wait for their lane_end without scheduling.
      join_cv_.wait(lk);
      continue;
    }
    // A parent typically reaches join right after spawning, before the
    // child OS threads reach lane_begin. Wait them in so the join step's
    // ready-set (and therefore the whole log) is deterministic.
    wait_registrations(lk);
    if (abort_) continue;
    if (index_ >= max_steps_) {
      abort_all("budget", "decision budget exhausted while joining");
      continue;
    }
    Lane& L = lanes_[me];
    if (L.last_block != token) {
      ++progress_;
      L.last_block = token;
    }
    L.state = LaneState::kBlocked;
    L.resource = token;
    L.timed = false;
    L.timeout_granted = false;
    Step s;
    s.index = index_;
    s.lane = me;
    s.kind = StepKind::kBlock;
    s.addr = token;
    s.write_like = true;
    s.preemptions_before = preemptions_;
    s.faults_before = faults_used_;
    s.ready = ready_lanes();
    const std::uint32_t next = pick_next(lk, me, /*nothrow=*/true);
    if (abort_) {
      if (L.state == LaneState::kBlocked) L.state = LaneState::kReady;
      continue;
    }
    s.chosen = next;
    log_.push_back(std::move(s));
    ++index_;
    consecutive_ = 0;
    if (next == me) {
      L.state = LaneState::kRunning;
      continue;
    }
    hand_off_and_park(lk, me, next);  // abort handled by the loop
  }
}

std::uint32_t Scheduler::choice(std::uint32_t arity, const char* site) {
  (void)site;
  if (t_slot == kNoSlot || arity < 2) return 0;
  std::unique_lock<std::mutex> lk(mu_);
  if (abort_) throw sched::CoopAbort{};
  wait_registrations(lk);
  if (abort_) throw sched::CoopAbort{};
  charge_step(lk);
  const std::uint32_t me = t_slot;
  std::uint32_t v = 0;
  const auto f = forced_.find(index_);
  if (f != forced_.end() && !f->second.is_switch) {
    v = f->second.value < arity ? f->second.value : arity - 1;
  }
  Step s;
  s.index = index_;
  s.lane = me;
  s.kind = StepKind::kChoice;
  s.arity = arity;
  s.chosen = v;
  s.preemptions_before = preemptions_;
  s.faults_before = faults_used_;
  s.ready = ready_lanes();
  log_.push_back(std::move(s));
  ++index_;
  ++progress_;
  if (v != 0) ++faults_used_;
  return v;
}

std::uint64_t Scheduler::signature() const {
  using sched::detail::mix64;
  // An address hashes as its first-touch index within this execution, so
  // executions that touch the same objects in the same roles hash equal
  // whatever the heap layout.
  std::unordered_map<const void*, std::uint64_t> first_touch;
  std::uint64_t h = 0x243f6a8885a308d3ULL;
  for (const Step& s : log_) {
    h = mix64(h ^ s.lane);
    h = mix64(h ^ static_cast<std::uint64_t>(static_cast<int>(s.kind)));
    h = mix64(h ^ first_touch.try_emplace(s.addr, first_touch.size()).first->second);
    h = mix64(h ^ s.chosen);
  }
  return h;
}

}  // namespace pml::verify
