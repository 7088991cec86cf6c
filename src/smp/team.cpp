#include "smp/team.hpp"

#include <atomic>
#include <string>
#include <thread>

#include "analyze/analyze.hpp"
#include "obs/obs.hpp"
#include "sched/coop.hpp"
#include "sched/sched.hpp"
#include "thread/adaptive_wait.hpp"
#include "thread/thread.hpp"

namespace pml::smp {

namespace {

std::atomic<int> g_default_threads{0};  // 0 = not set yet

int hardware_default() {
  const unsigned hc = std::thread::hardware_concurrency();
  return hc >= 2 ? static_cast<int>(hc) : 2;
}

/// The lock of a critical section, global across teams as in OpenMP. The
/// unnamed critical has one lock of its own, as in libgomp, so entering it
/// takes no table lock and no name lookup; named ones share a table.
std::mutex& critical_mutex(const std::string& name) {
  static std::mutex unnamed;
  if (name.empty()) return unnamed;
  static std::mutex table_mu;
  static std::map<std::string, std::unique_ptr<std::mutex>> table;
  std::lock_guard lock(table_mu);
  auto& slot = table[name];
  if (!slot) slot = std::make_unique<std::mutex>();
  return *slot;
}

}  // namespace

void set_default_num_threads(int n) {
  if (n <= 0) throw UsageError("set_default_num_threads: count must be positive");
  g_default_threads.store(n, std::memory_order_relaxed);
}

int default_num_threads() {
  const int n = g_default_threads.load(std::memory_order_relaxed);
  return n > 0 ? n : hardware_default();
}

void parallel(int num_threads, const std::function<void(Region&)>& body) {
  const int n = num_threads > 0 ? num_threads : default_num_threads();
  auto state = std::make_shared<detail::TeamState>(n);
  // Bracket the region for the worksharing lint: at team end it checks that
  // every member encountered the same construct sequence (the OpenMP rule).
  analyze::on_team_begin(state.get(), n);
  pml::thread::fork_join_inline(n, [&](int id) {
    Region region(state, id);
    body(region);
  });
  analyze::on_team_end(state.get());
}

void parallel(const std::function<void(Region&)>& body) { parallel(0, body); }

void Region::critical(const std::string& name, const std::function<void()>& fn) {
  std::mutex& mu = critical_mutex(name);
  sched::point_at(sched::Point::kLockAcquire, &mu);
  if (!mu.try_lock()) {
    // Probe first so only a contended entry opens a lock-wait span,
    // labelled with the critical's name while profiling. The critical body
    // is user code that can pass serialization points while holding mu,
    // which is why the acquisition is a lock_on.
    const char* label = nullptr;
    if (obs::active()) {
      label = obs::intern(name.empty() ? "critical" : "critical(" + name + ")");
    }
    obs::SpanScope wait{obs::SpanKind::kLockWait, label,
                        static_cast<std::int64_t>(reinterpret_cast<std::uintptr_t>(&mu))};
    pml::thread::lock_on(mu, &mu);
  }
  {
    std::lock_guard lock(mu, std::adopt_lock);
    if (analyze::active()) {
      const std::string label = name.empty() ? "critical" : "critical(" + name + ")";
      analyze::LockedRegion held(&mu, label.c_str());
      fn();
    } else {
      fn();
    }
  }
  sched::coop_wake(&mu);
}

std::shared_ptr<detail::WorkshareSlot> Region::acquire_slot() {
  const std::uint64_t key = workshare_count_++;
  std::lock_guard lock(state_->slots_mu);
  auto& slot = state_->slots[key];
  if (!slot) slot = std::make_shared<detail::WorkshareSlot>();
  return slot;
}

void Region::depart_slot(std::uint64_t key,
                         const std::shared_ptr<detail::WorkshareSlot>& slot) {
  bool last = false;
  {
    std::lock_guard lock(slot->mu);
    last = (++slot->departed == state_->size);
  }
  if (last) {
    std::lock_guard lock(state_->slots_mu);
    state_->slots.erase(key);
  }
}

bool Region::single(const std::function<void()>& fn, bool nowait) {
  analyze::on_workshare(state_.get(), id_, analyze::Construct::kSingle);
  const std::uint64_t key = workshare_count_;
  auto slot = acquire_slot();
  bool executed = false;
  {
    std::lock_guard lock(slot->mu);
    if (!slot->single_claimed) {
      slot->single_claimed = true;
      executed = true;
    }
  }
  if (executed) fn();
  if (!nowait) barrier();
  depart_slot(key, slot);
  return executed;
}

void Region::for_each(std::int64_t begin, std::int64_t end, const Schedule& schedule,
                      const std::function<void(std::int64_t)>& fn, bool nowait) {
  analyze::on_workshare(state_.get(), id_, analyze::Construct::kFor);
  const std::uint64_t key = workshare_count_;
  auto slot = acquire_slot();

  switch (schedule.kind) {
    case ScheduleKind::kStaticEqualChunks:
    case ScheduleKind::kStaticChunked: {
      for (const IterRange& r :
           static_assignment(schedule, begin, end, num_threads(), id_)) {
        // Chunk-granular sync point: coarse enough to stay off the
        // per-iteration hot path, frequent enough that chaos mode can
        // reshuffle which thread runs when.
        sched::point(sched::Point::kLoopChunk);
        obs::SpanScope chunk{obs::SpanKind::kChunk, "static-chunk", r.begin, r.end};
        obs::count(obs::Counter::kChunks);
        for (std::int64_t i = r.begin; i < r.end; ++i) fn(i);
      }
      break;
    }
    case ScheduleKind::kDynamic:
    case ScheduleKind::kGuided: {
      {
        std::lock_guard lock(slot->mu);
        if (!slot->dealer) {
          slot->dealer =
              std::make_shared<DynamicDealer>(schedule, begin, end, num_threads());
        }
      }
      for (IterRange r = slot->dealer->next(); !r.empty(); r = slot->dealer->next()) {
        sched::point(sched::Point::kLoopChunk);
        obs::SpanScope chunk{obs::SpanKind::kChunk, "dynamic-chunk", r.begin, r.end};
        obs::count(obs::Counter::kChunks);
        for (std::int64_t i = r.begin; i < r.end; ++i) fn(i);
      }
      break;
    }
  }

  if (!nowait) barrier();
  depart_slot(key, slot);
}

void Region::sections(const std::vector<std::function<void()>>& sections, bool nowait) {
  analyze::on_workshare(state_.get(), id_, analyze::Construct::kSections);
  const std::uint64_t key = workshare_count_;
  auto slot = acquire_slot();
  for (;;) {
    std::int64_t mine = -1;
    {
      std::lock_guard lock(slot->mu);
      if (slot->section_cursor < static_cast<std::int64_t>(sections.size())) {
        mine = slot->section_cursor++;
      }
    }
    if (mine < 0) break;
    sections[static_cast<std::size_t>(mine)]();
  }
  if (!nowait) barrier();
  depart_slot(key, slot);
}

}  // namespace pml::smp
