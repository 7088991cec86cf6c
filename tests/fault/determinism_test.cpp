/// \file determinism_test.cpp
/// \brief Acceptance test: the same --fault spec and seed reproduce the
/// identical fault sequence, run after run — compared through fault::Stats
/// (field by field, including the exact delay draws) and the obs fault
/// counters of two profiled runs.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>

#include "fault/fault.hpp"
#include "mp/communicator.hpp"
#include "mp/runtime.hpp"
#include "obs/obs.hpp"
#include "sched/sched.hpp"

namespace pml::fault {
namespace {

using namespace std::chrono_literals;

/// One message-heavy np=4 job with a *schedule-independent* checkpoint
/// count: every rank sends exactly 20 messages and then makes exactly 20
/// bounded receive calls, whatever arrives — so any cross-run difference in
/// Stats can only come from the injection draws themselves.
void ring_job(mp::Communicator& world) {
  const int next = (world.rank() + 1) % world.size();
  for (int i = 0; i < 20; ++i) world.send(i, next, /*tag=*/5);
  for (int i = 0; i < 20; ++i) {
    (void)world.recv_for<int>(5ms, mp::kAnySource, 5);
  }
}

/// Runs ring_job under \p spec with profiling on; returns the fault stats
/// and the run's summed obs fault counters.
struct Observed {
  Stats stats;
  std::uint64_t obs_dropped = 0;
  std::uint64_t obs_delayed = 0;
  std::uint64_t obs_duplicated = 0;
};

Observed run_once(const std::string& spec) {
  FaultScope scope{FaultPlan::parse(spec)};
  obs::Scope profiling;
  mp::run(4, ring_job);
  Observed out;
  out.stats = stats();
  const obs::Profile profile = profiling.finish();
  for (const auto& [task, metrics] : profile.tasks) {
    out.obs_dropped += metrics.value(obs::Counter::kFaultDropped);
    out.obs_delayed += metrics.value(obs::Counter::kFaultDelayed);
    out.obs_duplicated += metrics.value(obs::Counter::kFaultDuplicated);
  }
  return out;
}

void expect_identical(const Stats& a, const Stats& b) {
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.checkpoints, b.checkpoints);
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_EQ(a.duplicated, b.duplicated);
  EXPECT_EQ(a.delayed, b.delayed);
  EXPECT_EQ(a.delay_micros, b.delay_micros);
  EXPECT_EQ(a.crashed, b.crashed);
}

TEST(FaultDeterminism, DropSequenceIsIdenticalAcrossRuns) {
  const Observed a = run_once("drop:25%,seed:7");
  const Observed b = run_once("drop:25%,seed:7");
  expect_identical(a.stats, b.stats);
  // The plan actually fired, and the per-rank obs counters agree with the
  // fault layer's own tally — on both runs.
  EXPECT_GT(a.stats.dropped, 0u);
  EXPECT_EQ(a.obs_dropped, a.stats.dropped);
  EXPECT_EQ(b.obs_dropped, b.stats.dropped);
  // 80 sends and 80 bounded receives, independent of what got through.
  EXPECT_EQ(a.stats.checkpoints, 160u);
}

TEST(FaultDeterminism, DelayAndDupDrawsAreIdenticalAcrossRuns) {
  const Observed a = run_once("delay:2,dup:20%,seed:9");
  const Observed b = run_once("delay:2,dup:20%,seed:9");
  expect_identical(a.stats, b.stats);
  EXPECT_GT(a.stats.delayed, 0u);
  // delay_micros pins the exact per-message draws, not just their count.
  EXPECT_GT(a.stats.delay_micros, 0u);
  EXPECT_GT(a.stats.duplicated, 0u);
  EXPECT_EQ(a.obs_delayed, a.stats.delayed);
  EXPECT_EQ(a.obs_duplicated, a.stats.duplicated);
  EXPECT_EQ(b.obs_delayed, b.stats.delayed);
  EXPECT_EQ(b.obs_duplicated, b.stats.duplicated);
}

TEST(FaultDeterminism, BackToBackJobsInOneScopeDropTheSameMessages) {
  // One plan, two identical jobs: each rank's decision stream starts over
  // with its job, so the same (sender, message) pairs go missing both
  // times. Every rank sends before anyone drains, so what a rank receives
  // is exactly what was not dropped.
  FaultScope scope{FaultPlan::parse("drop:25%,seed:11")};
  const auto job = [] {
    std::mutex mu;
    std::set<std::pair<int, int>> received;
    std::atomic<int> senders_done{0};
    mp::run(4, [&](mp::Communicator& world) {
      const int next = (world.rank() + 1) % world.size();
      for (int i = 0; i < 20; ++i) world.send(i, next, /*tag=*/5);
      ++senders_done;
      while (senders_done.load() < world.size()) std::this_thread::yield();
      const int prev = (world.rank() + world.size() - 1) % world.size();
      while (const auto got = world.recv_for<int>(1ms, prev, 5)) {
        std::lock_guard lock(mu);
        received.emplace(prev, *got);
      }
    });
    return received;
  };
  const auto first = job();
  const auto second = job();
  EXPECT_GT(first.size(), 0u);
  EXPECT_LT(first.size(), 80u);  // the plan dropped something
  EXPECT_EQ(first, second);
}

TEST(FaultDeterminism, DifferentSeedsGiveDifferentSequences) {
  const Observed a = run_once("delay:2,seed:9");
  const Observed b = run_once("delay:2,seed:10");
  // 80 draws in [0, 2000] us: two seeds agreeing on the exact total would
  // be astronomically unlikely — a collision here means the seed is dead.
  EXPECT_NE(a.stats.delay_micros, b.stats.delay_micros);
}

TEST(FaultDeterminism, UnseededSpecInheritsTheChaosSeed) {
  sched::ChaosScope chaos{1234};
  FaultScope scope{FaultPlan::parse("drop:1")};
  EXPECT_EQ(effective_seed(), 1234u);
}

TEST(FaultDeterminism, ExplicitSeedOverridesTheChaosSeed) {
  sched::ChaosScope chaos{1234};
  FaultScope scope{FaultPlan::parse("drop:1,seed:99")};
  EXPECT_EQ(effective_seed(), 99u);
}

TEST(FaultDeterminism, SeedlessRunsStillUseAFixedDefault) {
  std::uint64_t first = 0;
  {
    FaultScope scope{FaultPlan::parse("drop:1")};
    first = effective_seed();
    EXPECT_NE(first, 0u);
  }
  FaultScope scope{FaultPlan::parse("drop:1")};
  EXPECT_EQ(effective_seed(), first);
}

}  // namespace
}  // namespace pml::fault
