#include "analyze/analyze.hpp"

#include <cstdio>
#include <iterator>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>

#include "analyze/hb.hpp"
#include "analyze/lockgraph.hpp"
#include "sched/sched.hpp"

namespace pml::analyze {

namespace detail {
std::atomic<int> g_active{0};
}  // namespace detail

namespace {

/// Synthetic sync keys (task tokens, barrier phases, message ids) live in
/// the odd integers: every real address the detector also keys on (locks,
/// fork/join tokens) is at least 2-byte aligned, so the spaces can't collide.
constexpr std::uintptr_t synthetic_key(std::uint64_t token) noexcept {
  return static_cast<std::uintptr_t>(token * 2 + 1);
}

const char* access_name(Access a) noexcept {
  switch (a) {
    case Access::kRead: return "read";
    case Access::kWrite: return "write";
    case Access::kAtomicRmw: return "atomic update";
  }
  return "?";
}

/// All shared analysis state. The mutex is a strict *leaf* lock: nothing
/// here ever takes a substrate lock, so hooks are safe to call while
/// mailbox/barrier/pool internals are held.
class Collector {
 public:
  static Collector& instance() {
    static Collector c;
    return c;
  }

  /// The calling thread's next event registers it as a new thread. Touches
  /// only the caller's thread-local state, so it takes no lock.
  static void forget_thread() noexcept { tstate() = ThreadState{}; }

  void begin_scope() {
    std::lock_guard lock(mu_);
    if (detail::g_active.load(std::memory_order_relaxed) != 0) {
      throw std::logic_error("analyze::Scope: a scope is already active");
    }
    hb_ = HbState{};
    locks_ = LockOrderGraph{};
    work_ = WorkshareTracker{};
    comm_ = CommTracker{};
    findings_.clear();
    counters_ = Counters{};
    lanes_.clear();
    barrier_keys_.clear();
    next_token_ = 1;
    ++generation_;
    detail::g_active.store(1, std::memory_order_release);
  }

  Report end_scope() {
    std::lock_guard lock(mu_);
    detail::g_active.store(0, std::memory_order_release);
    work_.finish(findings_);
    for (const LockCycle& c : locks_.cycles()) report_cycle(c);
    Report r;
    r.findings = std::move(findings_);
    findings_.clear();
    r.counters = counters_;
    return r;
  }

  void access(Access kind, const void* addr, const char* label) {
    std::lock_guard lock(mu_);
    ThreadState& ts = self();
    switch (kind) {
      case Access::kRead: ++counters_.reads; break;
      case Access::kWrite: ++counters_.writes; break;
      case Access::kAtomicRmw: ++counters_.rmws; break;
    }
    if (auto race = hb_.on_access(ts.tid, kind,
                                  reinterpret_cast<std::uintptr_t>(addr), label)) {
      report_race(*race);
    }
  }

  void lock_acquired(const void* lockp, const char* name) {
    std::lock_guard lock(mu_);
    ThreadState& ts = self();
    ++counters_.acquires;
    const LockId id = reinterpret_cast<LockId>(lockp);
    if (name != nullptr && *name != '\0') locks_.name_lock(id, name);
    locks_.on_acquire(ts.tid, id, ts.held);
    hb_.acquire(ts.tid, id);
    ts.held.push_back(id);
  }

  void lock_released(const void* lockp) {
    std::lock_guard lock(mu_);
    ThreadState& ts = self();
    const LockId id = reinterpret_cast<LockId>(lockp);
    for (auto it = ts.held.rbegin(); it != ts.held.rend(); ++it) {
      if (*it == id) {
        ts.held.erase(std::next(it).base());
        break;
      }
    }
    hb_.release(ts.tid, id);
  }

  void sync_release(const void* token) {
    std::lock_guard lock(mu_);
    ThreadState& ts = self();
    ++counters_.sync_edges;
    hb_.release(ts.tid, reinterpret_cast<std::uintptr_t>(token));
  }

  void sync_acquire(const void* token) {
    std::lock_guard lock(mu_);
    ThreadState& ts = self();
    hb_.acquire(ts.tid, reinterpret_cast<std::uintptr_t>(token));
  }

  void barrier_arrive(const void* barrier, std::uint64_t phase) {
    std::lock_guard lock(mu_);
    ThreadState& ts = self();
    ++counters_.sync_edges;
    hb_.release(ts.tid, barrier_key(barrier, phase));
  }

  void barrier_depart(const void* barrier, std::uint64_t phase) {
    std::lock_guard lock(mu_);
    ThreadState& ts = self();
    hb_.acquire(ts.tid, barrier_key(barrier, phase));
  }

  std::uint64_t task_publish() {
    std::lock_guard lock(mu_);
    ThreadState& ts = self();
    ++counters_.sync_edges;
    const std::uint64_t token = next_token_++;
    hb_.release(ts.tid, synthetic_key(token));
    return token;
  }

  void task_start(std::uint64_t token) {
    std::lock_guard lock(mu_);
    ThreadState& ts = self();
    hb_.acquire(ts.tid, synthetic_key(token));
  }

  void team_begin(const void* team, int size) {
    std::lock_guard lock(mu_);
    work_.team_begin(reinterpret_cast<std::uintptr_t>(team), size);
  }

  void team_end(const void* team) {
    std::lock_guard lock(mu_);
    work_.team_end(reinterpret_cast<std::uintptr_t>(team), findings_);
  }

  void workshare(const void* team, int member, Construct c) {
    std::lock_guard lock(mu_);
    work_.encounter(reinterpret_cast<std::uintptr_t>(team), member, c);
  }

  std::uint64_t mp_deliver(int to, int source, int tag, int context) {
    std::lock_guard lock(mu_);
    ThreadState& ts = self();
    ++counters_.messages;
    const std::uint64_t id = next_token_++;
    hb_.release(ts.tid, synthetic_key(id));
    comm_.on_deliver(to, MsgCoord{source, tag, context});
    return id;
  }

  void mp_match(std::uint64_t msg_id, int rank, int source, int tag, int context,
                int wanted_source, std::size_t wild_sources) {
    std::lock_guard lock(mu_);
    ThreadState& ts = self();
    if (msg_id != 0) hb_.acquire(ts.tid, synthetic_key(msg_id));
    comm_.on_match(rank, MsgCoord{source, tag, context}, wanted_source,
                   wild_sources, findings_);
  }

  void mp_timeout(int rank, int wanted_source, int wanted_tag, int wanted_context,
                  const std::vector<MsgCoord>& queued) {
    std::lock_guard lock(mu_);
    comm_.on_timeout(rank, wanted_source, wanted_tag, wanted_context, queued,
                     findings_);
  }

  void mp_leftover(int owner, int source, int tag, int context) {
    std::lock_guard lock(mu_);
    comm_.on_finalize_leftover(owner, MsgCoord{source, tag, context}, findings_);
  }

  void mp_fault_drop(int to, int source, int tag, int context) {
    std::lock_guard lock(mu_);
    comm_.on_fault_drop(to, MsgCoord{source, tag, context});
  }

  void mp_fault_stall(std::uint64_t dropped, long grace_ms) {
    std::lock_guard lock(mu_);
    comm_.on_fault_stall(dropped, grace_ms, findings_);
  }

  void mp_rdv_stalled(int sender, int dest, int tag, int context,
                      std::size_t bytes) {
    std::lock_guard lock(mu_);
    comm_.on_rdv_stalled(sender, dest, tag, context, bytes, findings_);
  }

 private:
  struct ThreadState {
    std::uint64_t gen = 0;
    Tid tid = 0;
    int lane = -1;
    std::vector<LockId> held;
  };

  static ThreadState& tstate() {
    thread_local ThreadState ts;
    return ts;
  }

  /// Registers the calling thread in the current scope if needed. Must be
  /// called with mu_ held.
  ThreadState& self() {
    ThreadState& ts = tstate();
    if (ts.gen != generation_) {
      ts.gen = generation_;
      ts.tid = hb_.new_thread();
      ts.held.clear();
      ts.lane = sched::bound_lane();
      lanes_.resize(static_cast<std::size_t>(ts.tid) + 1, -1);
      lanes_[ts.tid] = ts.lane;
      ++counters_.threads;
    } else if (ts.lane < 0) {
      // The thread may have bound its lane after its first event (the main
      // thread binds on entering its first region).
      ts.lane = sched::bound_lane();
      lanes_[ts.tid] = ts.lane;
    }
    return ts;
  }

  /// Display name for a registered thread: the substrate-bound lane is the
  /// team-relative id / rank students see in the output.
  std::string task_name(Tid tid) const {
    char buf[32];
    const int lane = tid < lanes_.size() ? lanes_[tid] : -1;
    if (lane >= 0) {
      std::snprintf(buf, sizeof(buf), "task %d", lane);
    } else {
      std::snprintf(buf, sizeof(buf), "task #%u", tid);
    }
    return buf;
  }

  std::uintptr_t barrier_key(const void* barrier, std::uint64_t phase) {
    auto [it, inserted] = barrier_keys_.try_emplace(
        {reinterpret_cast<std::uintptr_t>(barrier), phase}, 0);
    if (inserted) it->second = next_token_++;
    return synthetic_key(it->second);
  }

  void report_race(const Race& race) {
    Finding f;
    f.checker = Checker::kRace;
    f.severity = Severity::kError;
    f.address = race.address;
    char what[64];
    if (!race.label.empty()) {
      std::snprintf(what, sizeof(what), "`%s`", race.label.c_str());
      f.subject = race.label;
    } else {
      std::snprintf(what, sizeof(what), "address %#llx",
                    static_cast<unsigned long long>(race.address));
    }
    char msg[256];
    std::snprintf(msg, sizeof(msg),
                  "data race on %s: %s's unprotected %s is unordered with "
                  "%s's %s — no lock, barrier, join, or message connects "
                  "them, so they can interleave and lose updates",
                  what, task_name(race.current_tid).c_str(),
                  access_name(race.current_access),
                  task_name(race.prior_tid).c_str(),
                  access_name(race.prior_access));
    f.message = msg;
    findings_.push_back(std::move(f));
  }

  void report_cycle(const LockCycle& cycle) {
    Finding f;
    f.checker = Checker::kDeadlock;
    f.severity = Severity::kError;
    std::string ring;
    for (LockId l : cycle.locks) {
      if (!ring.empty()) ring += " -> ";
      ring += "`" + locks_.name_of(l) + "`";
    }
    ring += " -> `" + locks_.name_of(cycle.locks.front()) + "`";
    std::string who;
    for (std::size_t i = 0; i < cycle.threads.size(); ++i) {
      if (i != 0) who += ", ";
      who += task_name(cycle.threads[i]);
    }
    f.subject = locks_.name_of(cycle.locks.front());
    f.message =
        "potential deadlock: lock-order cycle " + ring + " (" + who +
        " nest these locks in opposite orders) — a schedule where each "
        "holds one and waits for the next never finishes, even if this "
        "run got lucky";
    findings_.push_back(std::move(f));
  }

  std::mutex mu_;
  HbState hb_;
  LockOrderGraph locks_;
  WorkshareTracker work_;
  CommTracker comm_;
  std::vector<Finding> findings_;
  Counters counters_;
  std::vector<int> lanes_;  ///< Dense tid -> bound lane (-1 unknown).
  std::map<std::pair<std::uintptr_t, std::uint64_t>, std::uint64_t> barrier_keys_;
  std::uint64_t next_token_ = 1;
  std::uint64_t generation_ = 0;
};

}  // namespace

namespace detail {

void record_access(Access kind, const void* addr, const char* label) noexcept {
  Collector::instance().access(kind, addr, label);
}
void lock_acquired(const void* lock, const char* name) noexcept {
  Collector::instance().lock_acquired(lock, name);
}
void lock_released(const void* lock) noexcept {
  Collector::instance().lock_released(lock);
}
void sync_release(const void* token) noexcept {
  Collector::instance().sync_release(token);
}
void sync_acquire(const void* token) noexcept {
  Collector::instance().sync_acquire(token);
}
void barrier_arrive(const void* barrier, std::uint64_t phase) noexcept {
  Collector::instance().barrier_arrive(barrier, phase);
}
void barrier_depart(const void* barrier, std::uint64_t phase) noexcept {
  Collector::instance().barrier_depart(barrier, phase);
}
std::uint64_t task_publish() noexcept { return Collector::instance().task_publish(); }
void task_start(std::uint64_t token) noexcept {
  Collector::instance().task_start(token);
}
void team_begin(const void* team, int size) noexcept {
  Collector::instance().team_begin(team, size);
}
void team_end(const void* team) noexcept { Collector::instance().team_end(team); }
void workshare(const void* team, int member, Construct c) noexcept {
  Collector::instance().workshare(team, member, c);
}
std::uint64_t mp_deliver(int to, int source, int tag, int context) noexcept {
  return Collector::instance().mp_deliver(to, source, tag, context);
}
void mp_match(std::uint64_t msg_id, int rank, int source, int tag, int context,
              int wanted_source, std::size_t wild_sources) noexcept {
  Collector::instance().mp_match(msg_id, rank, source, tag, context, wanted_source,
                                 wild_sources);
}
void mp_timeout(int rank, int wanted_source, int wanted_tag, int wanted_context,
                const std::vector<MsgCoord>& queued) noexcept {
  Collector::instance().mp_timeout(rank, wanted_source, wanted_tag, wanted_context,
                                   queued);
}
void mp_leftover(int owner, int source, int tag, int context) noexcept {
  Collector::instance().mp_leftover(owner, source, tag, context);
}
void mp_fault_drop(int to, int source, int tag, int context) noexcept {
  Collector::instance().mp_fault_drop(to, source, tag, context);
}
void mp_fault_stall(std::uint64_t dropped, long grace_ms) noexcept {
  Collector::instance().mp_fault_stall(dropped, grace_ms);
}
void mp_rdv_stalled(int sender, int dest, int tag, int context,
                    std::size_t bytes) noexcept {
  Collector::instance().mp_rdv_stalled(sender, dest, tag, context, bytes);
}

}  // namespace detail

void reset_thread() noexcept { Collector::forget_thread(); }

Scope::Scope() { Collector::instance().begin_scope(); }

Scope::~Scope() {
  if (!finished_) (void)finish();
}

Report Scope::finish() {
  if (!finished_) {
    report_ = Collector::instance().end_scope();
    finished_ = true;
  }
  return report_;
}

}  // namespace pml::analyze
