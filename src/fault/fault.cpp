#include "fault/fault.hpp"

#include <cctype>
#include <chrono>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "analyze/analyze.hpp"
#include "obs/obs.hpp"
#include "sched/coop.hpp"
#include "sched/sched.hpp"

namespace pml::fault {

namespace detail {
std::atomic<int> g_active{0};
}  // namespace detail

namespace {

using sched::detail::mix64;

/// With neither a plan seed nor an active chaos seed, decisions still need
/// a seed — a fixed one keeps "I typed --fault=drop:25% twice and got two
/// different runs" from ever happening.
constexpr std::uint64_t kDefaultSeed = 0x70617474726e6c74ULL;  // "pattrnlt"

/// Per-action salts so the drop, dup, and delay draws for the same message
/// are independent streams of the same seed.
enum Salt : std::uint64_t {
  kSaltDrop = 0x11,
  kSaltDup = 0x22,
  kSaltDelay = 0x33,
};

/// The hot-path copy of the plan: plain fields written by configure() and
/// read raced-but-benign by injection sites, exactly like sched's g_seed
/// (configure is documented as not concurrent with traffic). Node actions
/// additionally need a bound job, below.
struct ActivePlan {
  std::uint32_t drop_first = 0;
  std::uint32_t drop_percent = 0;
  std::uint32_t dup_first = 0;
  std::uint32_t dup_percent = 0;
  std::uint32_t delay_max_ms = 0;
  std::uint32_t crash_after = 0;
  std::uint32_t slow_ms = 0;
  bool want_crash = false;
  bool want_slow = false;
};

ActivePlan g_hot;
std::atomic<std::uint64_t> g_seed{0};

/// Bumped by configure(); lanes lazily reset their call counters when they
/// notice, so every fault window starts from a clean schedule (the same
/// epoch trick sched.cpp uses).
std::atomic<std::uint64_t> g_epoch{1};

/// Auto lanes for threads that never bound a sched lane (unit tests driving
/// a Mailbox directly). Same base offset as sched so ranges cannot collide
/// with bound rank lanes.
constexpr std::uint32_t kAutoLaneBase = 1u << 16;
std::atomic<std::uint32_t> g_auto_lane{0};

std::atomic<std::uint64_t> g_checkpoints{0};
std::atomic<std::uint64_t> g_dropped{0};
std::atomic<std::uint64_t> g_duplicated{0};
std::atomic<std::uint64_t> g_delayed{0};
std::atomic<std::uint64_t> g_delay_micros{0};
std::atomic<std::uint64_t> g_crashed{0};

struct LaneState {
  std::uint64_t epoch = 0;
  std::uint64_t deliveries = 0;   ///< Per-lane deposit call index.
  std::uint64_t checkpoints = 0;  ///< Per-lane crash-countdown position.
  std::uint32_t auto_lane = 0;
};

LaneState& lane_state() {
  thread_local LaneState tl;
  return tl;
}

/// The cold state: full plan, job binding, crash bookkeeping. The mutex is
/// a strict leaf taken only on cold paths (configure, bind, crash trigger,
/// node lookups while a node action is live) and never while a mailbox
/// lock is held — fault checkpoints run before the mailbox locks.
std::mutex g_mu;
FaultPlan g_plan;

struct Job {
  JobHooks hooks;
  int crash_node = -1;  ///< Resolved index; -1 = no crash action.
  int slow_node = -1;
  bool node_poisoned = false;   ///< Crash-node mailboxes already poisoned.
  std::vector<bool> recorded;   ///< Per-rank: crash already counted.
};
Job* g_job = nullptr;
/// Ranks the crash action killed. Lives outside the Job so diagnostics can
/// still name the dead after mp::run unbinds; reset per configure/binding.
std::vector<int> g_crashed_list;

std::uint64_t draw(std::uint64_t salt, std::uint32_t lane, std::uint64_t call) {
  const std::uint64_t seed = g_seed.load(std::memory_order_relaxed);
  std::uint64_t h = mix64(seed ^ (salt * 0x9e3779b97f4a7c15ULL));
  h = mix64(h + 0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(lane) + 1));
  return mix64(h + call);
}

bool percent_hit(std::uint64_t salt, std::uint32_t lane, std::uint64_t call,
                 std::uint32_t percent) {
  return draw(salt, lane, call) % 100 < percent;
}

/// This thread's decision lane: the sched-bound lane (the world rank inside
/// mp rank threads), else a per-epoch auto lane.
std::uint32_t current_lane(LaneState& ls) {
  const int bound = sched::bound_lane();
  if (bound >= 0) return static_cast<std::uint32_t>(bound);
  return ls.auto_lane;
}

void refresh_epoch(LaneState& ls) {
  const std::uint64_t epoch = g_epoch.load(std::memory_order_acquire);
  if (ls.epoch != epoch) {
    ls.epoch = epoch;
    ls.deliveries = 0;
    ls.checkpoints = 0;
    ls.auto_lane = kAutoLaneBase + g_auto_lane.fetch_add(1, std::memory_order_relaxed);
  }
}

/// Node-crash trigger. Runs at every fault checkpoint of every thread; a
/// thread whose bound lane is a rank on the crashing node dies once it has
/// spent its crash_after checkpoint allowance. The *first* victim to
/// trigger poisons every co-located rank's mailbox (waking blocked
/// victims); each victim's own thread still dies with NodeCrashFault at
/// its next checkpoint, so the crash is attributed to the node, not to
/// whichever rank happened to run first.
void maybe_crash(LaneState& ls) {
  if (!g_hot.want_crash) return;
  const int rank = sched::bound_lane();
  if (rank < 0) return;  // not an mp rank thread
  if (ls.checkpoints < g_hot.crash_after) return;

  std::vector<int> to_poison;
  std::function<void(int)> poison;
  std::string name;
  int node = -1;
  bool newly_dead = false;
  {
    std::lock_guard lock(g_mu);
    if (g_job == nullptr || g_job->crash_node < 0) return;
    if (rank >= g_job->hooks.nprocs) return;
    node = g_job->hooks.node_of(rank);
    if (node != g_job->crash_node) return;
    if (!g_job->recorded[static_cast<std::size_t>(rank)]) {
      g_job->recorded[static_cast<std::size_t>(rank)] = true;
      g_crashed_list.push_back(rank);
      newly_dead = true;
    }
    if (!g_job->node_poisoned) {
      // The first victim takes the whole node down: co-located victims
      // blocked in a receive must be woken, and no further traffic may
      // land here. Each victim's own thread still dies at its next
      // checkpoint, so the crash belongs to the node, not to whichever
      // rank happened to run first.
      g_job->node_poisoned = true;
      for (int r = 0; r < g_job->hooks.nprocs; ++r) {
        if (g_job->hooks.node_of(r) == node) to_poison.push_back(r);
      }
      poison = g_job->hooks.poison_rank;
    }
    name = g_job->hooks.node_name ? g_job->hooks.node_name(node) : "?";
  }
  if (newly_dead) g_crashed.fetch_add(1, std::memory_order_relaxed);
  // Poisoning takes mailbox locks; do it after dropping g_mu so the lock
  // order stays fault -> mailbox with no chance of a cycle.
  for (int r : to_poison) poison(r);
  throw NodeCrashFault("node crash (fault injection): rank " +
                           std::to_string(rank) + " died with its node " + name,
                       rank, node);
}

/// Extra latency for a delivery touching the slow node (either endpoint).
std::uint32_t slow_node_hold(int dest) {
  if (!g_hot.want_slow) return 0;
  std::lock_guard lock(g_mu);
  if (g_job == nullptr || g_job->slow_node < 0) return 0;
  const int sender = sched::bound_lane();
  if (dest >= 0 && dest < g_job->hooks.nprocs &&
      g_job->hooks.node_of(dest) == g_job->slow_node) {
    return g_hot.slow_ms;
  }
  if (sender >= 0 && sender < g_job->hooks.nprocs &&
      g_job->hooks.node_of(sender) == g_job->slow_node) {
    return g_hot.slow_ms;
  }
  return 0;
}

/// \name Spec parsing
/// @{

[[noreturn]] void bad_term(const std::string& term, const std::string& why) {
  throw UsageError("--fault: bad term '" + term + "': " + why +
                   " (grammar: drop:N[%],dup:N[%],delay:MS,"
                   "crash:NODE[@K],slow:NODE@MS,seed:S)");
}

/// Parses "25" / "25%" into (value, is_percent). Digits only.
std::pair<std::uint64_t, bool> parse_count(const std::string& term,
                                           const std::string& text) {
  if (text.empty()) bad_term(term, "missing value");
  std::string digits = text;
  bool percent = false;
  if (digits.back() == '%') {
    percent = true;
    digits.pop_back();
  }
  if (digits.empty()) bad_term(term, "missing value");
  std::uint64_t value = 0;
  for (char c : digits) {
    if (!std::isdigit(static_cast<unsigned char>(c))) {
      bad_term(term, "expected a number");
    }
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
    if (value > 1'000'000'000ULL) bad_term(term, "value out of range");
  }
  if (percent && value > 100) bad_term(term, "percentage above 100");
  return {value, percent};
}

/// @}

}  // namespace

FaultPlan FaultPlan::parse(const std::string& spec) {
  FaultPlan plan;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    const std::string term =
        spec.substr(pos, comma == std::string::npos ? std::string::npos : comma - pos);
    pos = comma == std::string::npos ? spec.size() + 1 : comma + 1;
    if (term.empty()) {
      if (spec.empty()) break;
      bad_term(term, "empty term");
    }
    // seed accepts both ':' and '=' — it reads as an assignment.
    std::size_t sep = term.find(':');
    if (sep == std::string::npos) sep = term.find('=');
    if (sep == std::string::npos) bad_term(term, "expected action:value");
    const std::string action = term.substr(0, sep);
    const std::string value = term.substr(sep + 1);
    if (action == "drop") {
      auto [n, percent] = parse_count(term, value);
      if (percent) {
        plan.drop_percent = static_cast<std::uint32_t>(n);
      } else {
        plan.drop_first = static_cast<std::uint32_t>(n);
      }
    } else if (action == "dup") {
      auto [n, percent] = parse_count(term, value);
      if (percent) {
        plan.dup_percent = static_cast<std::uint32_t>(n);
      } else {
        plan.dup_first = static_cast<std::uint32_t>(n);
      }
    } else if (action == "delay") {
      auto [n, percent] = parse_count(term, value);
      if (percent) bad_term(term, "delay takes milliseconds, not a percentage");
      plan.delay_max_ms = static_cast<std::uint32_t>(n);
    } else if (action == "crash") {
      const std::size_t at = value.find('@');
      plan.crash_node = value.substr(0, at);
      if (plan.crash_node.empty()) bad_term(term, "missing node");
      if (at != std::string::npos) {
        auto [n, percent] = parse_count(term, value.substr(at + 1));
        if (percent) bad_term(term, "crash takes a checkpoint count after @");
        plan.crash_after = static_cast<std::uint32_t>(n);
      }
    } else if (action == "slow") {
      const std::size_t at = value.find('@');
      if (at == std::string::npos) bad_term(term, "slow needs NODE@MS");
      plan.slow_node = value.substr(0, at);
      if (plan.slow_node.empty()) bad_term(term, "missing node");
      auto [n, percent] = parse_count(term, value.substr(at + 1));
      if (percent) bad_term(term, "slow takes milliseconds after @");
      plan.slow_ms = static_cast<std::uint32_t>(n);
    } else if (action == "seed") {
      auto [n, percent] = parse_count(term, value);
      if (percent) bad_term(term, "seed takes a number");
      plan.seed = n;
    } else {
      bad_term(term, "unknown action '" + action + "'");
    }
  }
  return plan;
}

std::string FaultPlan::to_string() const {
  std::string out;
  auto add = [&out](const std::string& term) {
    if (!out.empty()) out += ',';
    out += term;
  };
  if (drop_first != 0) add("drop:" + std::to_string(drop_first));
  if (drop_percent != 0) add("drop:" + std::to_string(drop_percent) + "%");
  if (dup_first != 0) add("dup:" + std::to_string(dup_first));
  if (dup_percent != 0) add("dup:" + std::to_string(dup_percent) + "%");
  if (delay_max_ms != 0) add("delay:" + std::to_string(delay_max_ms));
  if (!crash_node.empty()) {
    add("crash:" + crash_node + "@" + std::to_string(crash_after));
  }
  if (!slow_node.empty()) add("slow:" + slow_node + "@" + std::to_string(slow_ms));
  if (seed != 0) add("seed:" + std::to_string(seed));
  return out;
}

void configure(const FaultPlan& plan) {
  {
    std::lock_guard lock(g_mu);
    g_plan = plan;
    g_crashed_list.clear();
  }
  g_hot.drop_first = plan.drop_first;
  g_hot.drop_percent = plan.drop_percent;
  g_hot.dup_first = plan.dup_first;
  g_hot.dup_percent = plan.dup_percent;
  g_hot.delay_max_ms = plan.delay_max_ms;
  g_hot.crash_after = plan.crash_after;
  g_hot.slow_ms = plan.slow_ms;
  g_hot.want_crash = !plan.crash_node.empty();
  g_hot.want_slow = !plan.slow_node.empty();
  std::uint64_t seed = plan.seed;
  if (seed == 0) seed = sched::seed();
  if (seed == 0) seed = kDefaultSeed;
  g_seed.store(plan.any() ? seed : 0, std::memory_order_relaxed);
  g_epoch.fetch_add(1, std::memory_order_acq_rel);
  g_auto_lane.store(0, std::memory_order_relaxed);
  g_checkpoints.store(0, std::memory_order_relaxed);
  g_dropped.store(0, std::memory_order_relaxed);
  g_duplicated.store(0, std::memory_order_relaxed);
  g_delayed.store(0, std::memory_order_relaxed);
  g_delay_micros.store(0, std::memory_order_relaxed);
  g_crashed.store(0, std::memory_order_relaxed);
  detail::g_active.store(plan.any() ? 1 : 0, std::memory_order_release);
}

FaultPlan plan() {
  std::lock_guard lock(g_mu);
  return g_plan;
}

std::uint64_t effective_seed() noexcept {
  return g_seed.load(std::memory_order_relaxed);
}

Stats stats() noexcept {
  Stats s;
  s.seed = g_seed.load(std::memory_order_relaxed);
  s.checkpoints = g_checkpoints.load(std::memory_order_relaxed);
  s.dropped = g_dropped.load(std::memory_order_relaxed);
  s.duplicated = g_duplicated.load(std::memory_order_relaxed);
  s.delayed = g_delayed.load(std::memory_order_relaxed);
  s.delay_micros = g_delay_micros.load(std::memory_order_relaxed);
  s.crashed = g_crashed.load(std::memory_order_relaxed);
  return s;
}

DeliveryFault on_deliver(int dest, int source, int tag, int context) {
  LaneState& ls = lane_state();
  refresh_epoch(ls);
  g_checkpoints.fetch_add(1, std::memory_order_relaxed);
  maybe_crash(ls);  // may throw NodeCrashFault on the sender
  ++ls.checkpoints;

  const std::uint32_t lane = current_lane(ls);
  const std::uint64_t call = ls.deliveries++;

  if (sched::coop_active()) {
    // Cooperative verification: fault outcomes become explorer choice
    // points, so the schedule search enumerates "this message dropped /
    // duplicated" instead of drawing from the plan's hash stream. Delay
    // and slow-node holds are skipped — time is logical here, and a held
    // sender would only stall the single running lane.
    DeliveryFault out;
    if (g_hot.drop_first != 0 || g_hot.drop_percent != 0) {
      if (sched::coop_choice(2, "fault-drop") == 1) {
        out.drop = true;
        g_dropped.fetch_add(1, std::memory_order_relaxed);
        obs::count(obs::Counter::kFaultDropped);
        analyze::on_mp_fault_drop(dest, source, tag, context);
        return out;
      }
    }
    if (g_hot.dup_first != 0 || g_hot.dup_percent != 0) {
      if (sched::coop_choice(2, "fault-dup") == 1) {
        out.duplicate = true;
        g_duplicated.fetch_add(1, std::memory_order_relaxed);
        obs::count(obs::Counter::kFaultDuplicated);
      }
    }
    return out;
  }

  DeliveryFault out;
  if (g_hot.drop_first != 0 && call < g_hot.drop_first) {
    out.drop = true;
  } else if (g_hot.drop_percent != 0 &&
             percent_hit(kSaltDrop, lane, call, g_hot.drop_percent)) {
    out.drop = true;
  }
  if (out.drop) {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
    obs::count(obs::Counter::kFaultDropped);
    analyze::on_mp_fault_drop(dest, source, tag, context);
    return out;  // a dropped message is neither duplicated nor delayed
  }

  if (g_hot.dup_first != 0 && call < g_hot.dup_first) {
    out.duplicate = true;
  } else if (g_hot.dup_percent != 0 &&
             percent_hit(kSaltDup, lane, call, g_hot.dup_percent)) {
    out.duplicate = true;
  }
  if (out.duplicate) {
    g_duplicated.fetch_add(1, std::memory_order_relaxed);
    obs::count(obs::Counter::kFaultDuplicated);
  }

  std::uint64_t hold_us = 0;
  if (g_hot.delay_max_ms != 0) {
    hold_us = draw(kSaltDelay, lane, call) %
              (static_cast<std::uint64_t>(g_hot.delay_max_ms) * 1000 + 1);
  }
  hold_us += static_cast<std::uint64_t>(slow_node_hold(dest)) * 1000;
  if (hold_us != 0) {
    g_delayed.fetch_add(1, std::memory_order_relaxed);
    g_delay_micros.fetch_add(hold_us, std::memory_order_relaxed);
    obs::count(obs::Counter::kFaultDelayed);
    // Held on the sender's thread: with no delivery daemon in the design,
    // a slow link slows the sender — which is also what a real blocking
    // transport does once its buffers fill.
    std::this_thread::sleep_for(std::chrono::microseconds(hold_us));
  }
  return out;
}

void on_receive_checkpoint() {
  LaneState& ls = lane_state();
  refresh_epoch(ls);
  g_checkpoints.fetch_add(1, std::memory_order_relaxed);
  maybe_crash(ls);  // may throw NodeCrashFault on the receiver
  ++ls.checkpoints;
}

LaneCounters lane_snapshot() {
  LaneState& ls = lane_state();
  refresh_epoch(ls);
  return {ls.deliveries, ls.checkpoints};
}

void reset_thread() noexcept { lane_state() = LaneState{}; }

void lane_restore(const LaneCounters& counters) {
  LaneState& ls = lane_state();
  // Adopt the current epoch first so a later refresh_epoch() cannot wipe
  // the restored indices, then rewind to the checkpointed stream position.
  refresh_epoch(ls);
  ls.deliveries = counters.deliveries;
  ls.checkpoints = counters.checkpoints;
}

JobBinding::JobBinding(JobHooks hooks) {
  auto job = std::make_unique<Job>();
  job->hooks = std::move(hooks);
  job->recorded.assign(static_cast<std::size_t>(job->hooks.nprocs), false);
  FaultPlan active_plan;
  {
    std::lock_guard lock(g_mu);
    active_plan = g_plan;
  }
  // Resolve node names against this job's cluster *before* publishing, so
  // a bad --fault node name fails the run up front with a UsageError
  // instead of silently never crashing anything.
  if (!active_plan.crash_node.empty()) {
    job->crash_node = job->hooks.resolve_node(active_plan.crash_node);
  }
  if (!active_plan.slow_node.empty()) {
    job->slow_node = job->hooks.resolve_node(active_plan.slow_node);
  }
  std::lock_guard lock(g_mu);
  delete g_job;
  g_job = job.release();
  g_crashed_list.clear();
}

JobBinding::~JobBinding() {
  std::lock_guard lock(g_mu);
  delete g_job;
  g_job = nullptr;
}

std::vector<int> crashed_ranks() {
  std::lock_guard lock(g_mu);
  return g_crashed_list;
}

}  // namespace pml::fault
