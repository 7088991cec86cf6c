#include "sched/sched.hpp"

#include <chrono>
#include <thread>

#include "sched/coop.hpp"

namespace pml::sched {

namespace detail {
std::atomic<std::uint64_t> g_seed{0};
std::atomic<int> g_gate{0};
std::atomic<CoopSink*> g_coop{nullptr};

namespace {
/// g_gate mirrors (seed != 0 || sink != nullptr); recomputed whenever
/// either input changes (configure / install_coop — both quiescent).
void refresh_gate() noexcept {
  const bool on = g_seed.load(std::memory_order_relaxed) != 0 ||
                  g_coop.load(std::memory_order_relaxed) != nullptr;
  g_gate.store(on ? 1 : 0, std::memory_order_relaxed);
}
}  // namespace
}  // namespace detail

namespace {

/// Bumped by configure(); threads lazily reset their per-lane call counter
/// when they notice the epoch moved, so every chaos window starts from a
/// clean, reproducible schedule.
std::atomic<std::uint64_t> g_epoch{1};

/// Next auto-assigned lane for threads that never bind one. Offset far past
/// any plausible bound lane so the two ranges cannot collide.
constexpr std::uint32_t kAutoLaneBase = 1u << 16;
std::atomic<std::uint32_t> g_auto_lane{0};

std::atomic<std::uint64_t> g_points{0};
std::atomic<std::uint64_t> g_yields{0};
std::atomic<std::uint64_t> g_spins{0};
std::atomic<std::uint64_t> g_sleeps{0};
std::atomic<std::uint64_t> g_slept_micros{0};

struct LaneState {
  std::uint64_t epoch = 0;
  std::uint64_t calls = 0;
  std::uint32_t lane = 0;
  bool bound = false;
};

LaneState& lane_state() {
  thread_local LaneState tl;
  return tl;
}

using detail::mix64;

/// Per-kind aggressiveness. Shared-data windows get perturbed hardest: a
/// yield inside a torn read/write pair is precisely what loses an update.
/// Rates are yield/256, spin/256, sleep/4096 of point() calls.
struct Profile {
  std::uint32_t yield_in_256;
  std::uint32_t spin_in_256;
  std::uint32_t sleep_in_4096;
};

constexpr Profile kProfiles[kPointKinds] = {
    /* kSharedRead   */ {64, 32, 8},
    /* kSharedWrite  */ {32, 32, 4},
    /* kLockAcquire  */ {24, 16, 4},
    /* kLoopChunk    */ {48, 16, 8},
    /* kTaskDispatch */ {48, 16, 8},
    /* kDelivery     */ {32, 16, 4},
};

}  // namespace

const char* to_string(Point p) noexcept {
  switch (p) {
    case Point::kSharedRead: return "shared-read";
    case Point::kSharedWrite: return "shared-write";
    case Point::kLockAcquire: return "lock-acquire";
    case Point::kLoopChunk: return "loop-chunk";
    case Point::kTaskDispatch: return "task-dispatch";
    case Point::kDelivery: return "delivery";
  }
  return "?";
}

Decision decide(std::uint64_t seed, std::uint32_t lane, std::uint64_t call,
                Point kind) noexcept {
  if (seed == 0) return {};
  std::uint64_t h = mix64(seed + 0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(lane) + 1));
  h = mix64(h + (call << 3) + static_cast<std::uint64_t>(kind));
  const Profile& p = kProfiles[static_cast<int>(kind)];
  // Low bits pick the rare sleep; higher bits pick yield/spin, so the two
  // draws are effectively independent.
  if ((h & 4095u) < p.sleep_in_4096) {
    return {Action::kSleep, 20 + static_cast<std::uint32_t>((h >> 12) % 100)};
  }
  const std::uint32_t r = (h >> 24) & 255u;
  if (r < p.yield_in_256) return {Action::kYield, 0};
  if (r < p.yield_in_256 + p.spin_in_256) {
    return {Action::kSpin, 200 + static_cast<std::uint32_t>((h >> 32) % 2000)};
  }
  return {};
}

namespace detail {

void perturb(Point kind) noexcept {
  const std::uint64_t seed = g_seed.load(std::memory_order_relaxed);
  if (seed == 0) return;
  LaneState& ls = lane_state();
  const std::uint64_t epoch = g_epoch.load(std::memory_order_acquire);
  if (ls.epoch != epoch) {
    ls.epoch = epoch;
    ls.calls = 0;
    if (!ls.bound) {
      ls.lane = kAutoLaneBase + g_auto_lane.fetch_add(1, std::memory_order_relaxed);
    }
  }
  const Decision d = decide(seed, ls.lane, ls.calls++, kind);
  g_points.fetch_add(1, std::memory_order_relaxed);
  switch (d.action) {
    case Action::kNone:
      break;
    case Action::kYield:
      g_yields.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::yield();
      break;
    case Action::kSpin: {
      g_spins.fetch_add(1, std::memory_order_relaxed);
      volatile std::uint32_t sink = 0;
      for (std::uint32_t i = 0; i < d.magnitude; ++i) sink = sink + 1;
      break;
    }
    case Action::kSleep:
      g_sleeps.fetch_add(1, std::memory_order_relaxed);
      g_slept_micros.fetch_add(d.magnitude, std::memory_order_relaxed);
      std::this_thread::sleep_for(std::chrono::microseconds(d.magnitude));
      break;
  }
}

void pause(Point kind, const void* addr) {
  if (CoopSink* s = g_coop.load(std::memory_order_relaxed)) {
    s->point(kind, addr);
    return;
  }
  if (g_seed.load(std::memory_order_relaxed) != 0) perturb(kind);
}

}  // namespace detail

void install_coop(CoopSink* sink) noexcept {
  detail::g_coop.store(sink, std::memory_order_relaxed);
  detail::refresh_gate();
}

void configure(std::uint64_t seed) noexcept {
  detail::g_seed.store(seed, std::memory_order_relaxed);
  detail::refresh_gate();
  g_epoch.fetch_add(1, std::memory_order_acq_rel);
  g_auto_lane.store(0, std::memory_order_relaxed);
  g_points.store(0, std::memory_order_relaxed);
  g_yields.store(0, std::memory_order_relaxed);
  g_spins.store(0, std::memory_order_relaxed);
  g_sleeps.store(0, std::memory_order_relaxed);
  g_slept_micros.store(0, std::memory_order_relaxed);
}

void detail::restore_counters(const Stats& s) noexcept {
  g_points.store(s.points, std::memory_order_relaxed);
  g_yields.store(s.yields, std::memory_order_relaxed);
  g_spins.store(s.spins, std::memory_order_relaxed);
  g_sleeps.store(s.sleeps, std::memory_order_relaxed);
  g_slept_micros.store(s.slept_micros, std::memory_order_relaxed);
}

void bind_lane(std::uint32_t lane) noexcept {
  LaneState& ls = lane_state();
  ls.lane = lane;
  ls.bound = true;
  // Joining a region is a fresh schedule position for this thread.
  ls.epoch = g_epoch.load(std::memory_order_acquire);
  ls.calls = 0;
}

int bound_lane() noexcept {
  const LaneState& ls = lane_state();
  return ls.bound ? static_cast<int>(ls.lane) : -1;
}

void reset_thread() noexcept { lane_state() = LaneState{}; }

Stats stats() noexcept {
  Stats s;
  s.points = g_points.load(std::memory_order_relaxed);
  s.yields = g_yields.load(std::memory_order_relaxed);
  s.spins = g_spins.load(std::memory_order_relaxed);
  s.sleeps = g_sleeps.load(std::memory_order_relaxed);
  s.slept_micros = g_slept_micros.load(std::memory_order_relaxed);
  return s;
}

}  // namespace pml::sched
