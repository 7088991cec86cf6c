/// \file hosts_test.cpp
/// \brief The host-thread rules: back-to-back jobs reuse the same kernel
/// threads (task i on the thread that ran task i before), a host stays
/// with its group until joined, a task starts with fresh per-thread
/// tooling state, and a thread that joins a team as its member 0 gets its
/// own lane back afterwards.

#include "thread/hosts.hpp"

#include <gtest/gtest.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <set>
#include <thread>

#include "analyze/analyze.hpp"
#include "mp/mp.hpp"
#include "obs/obs.hpp"
#include "sched/sched.hpp"
#include "smp/team.hpp"
#include "thread/thread.hpp"

namespace pml::thread {
namespace {

long kernel_tid() { return ::syscall(SYS_gettid); }

/// Kernel thread id of each task of one job, by task index.
class Tids {
 public:
  void add(int task) {
    std::lock_guard lock(mu_);
    tids_[task] = kernel_tid();
  }
  std::map<int, long> by_task() const {
    std::lock_guard lock(mu_);
    return tids_;
  }
  std::set<long> distinct() const {
    std::set<long> out;
    for (const auto& [task, tid] : by_task()) out.insert(tid);
    return out;
  }

 private:
  mutable std::mutex mu_;
  std::map<int, long> tids_;
};

template <typename Job>
void expect_second_job_reuses_threads(Job job) {
  Tids first;
  Tids second;
  job(first);
  job(second);
  EXPECT_EQ(first.distinct().size(), 4u);
  EXPECT_EQ(first.by_task(), second.by_task());
}

TEST(Hosts, BackToBackMpJobsRunOnTheSameKernelThreads) {
  expect_second_job_reuses_threads([](Tids& tids) {
    mp::run(4, [&](mp::Communicator& world) { tids.add(world.rank()); });
  });
}

TEST(Hosts, BackToBackParallelRegionsRunOnTheSameKernelThreads) {
  expect_second_job_reuses_threads([](Tids& tids) {
    smp::parallel(4, [&](smp::Region& region) { tids.add(region.thread_num()); });
  });
}

TEST(Hosts, BackToBackForkJoinsRunOnTheSameKernelThreads) {
  expect_second_job_reuses_threads(
      [](Tids& tids) { fork_join(4, [&](int id) { tids.add(id); }); });
}

TEST(Hosts, WorkersThatReturnAtOnceStillHoldDistinctThreads) {
  // A finished worker's host stays with the group until the join, so a
  // sibling spawned after it finished cannot land on the same thread.
  Tids tids;
  fork_join(8, [&](int id) { tids.add(id); });
  EXPECT_EQ(tids.distinct().size(), 8u);
}

TEST(Hosts, FinishedButUnjoinedThreadKeepsItsHost) {
  std::atomic<long> first_tid{0};
  std::atomic<long> second_tid{0};
  Thread first(0, [&](int) { first_tid = kernel_tid(); });
  while (first_tid.load() == 0) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(1));  // body returns
  Thread second(1, [&](int) { second_tid = kernel_tid(); });
  second.join();
  first.join();
  EXPECT_NE(first_tid.load(), second_tid.load());
}

TEST(Hosts, TaskStartsWithoutThePreviousTasksLane) {
  // fork_join binds each worker's sched lane to its id; a task that later
  // lands on the same host must start unbound, as on a new thread.
  std::atomic<long> worker_tid{0};
  fork_join(1, [&](int) { worker_tid = kernel_tid(); });
  std::atomic<long> task_tid{0};
  std::atomic<int> lane{0};
  TaskGroup group(1, 1);
  group.start(0, [&] {
    task_tid = kernel_tid();
    lane = sched::bound_lane();
  });
  group.join();
  EXPECT_EQ(task_tid.load(), worker_tid.load());
  EXPECT_EQ(lane.load(), -1);
}

TEST(Hosts, EachTaskRegistersWithTheAnalyzerAsANewThread) {
  // The second fork_join reuses the first one's hosts; its workers must
  // still register as threads of their own.
  analyze::Scope scope;
  for (int round = 0; round < 2; ++round) fork_join(4, [](int) {});
  const analyze::Report report = scope.finish();
  EXPECT_EQ(report.counters.threads, 9u);  // the caller plus 2 x 4 workers
}

TEST(Hosts, WaitForReportsCompletionWithoutReleasingTheHost) {
  std::atomic<bool> go{false};
  std::atomic<long> first_tid{0};
  TaskGroup group(1, 1);
  group.start(0, [&] {
    first_tid = kernel_tid();
    while (!go.load()) std::this_thread::yield();
  });
  EXPECT_FALSE(group.wait_for(std::chrono::milliseconds(1)));
  go = true;
  while (!group.wait_for(std::chrono::milliseconds(50))) {
  }
  EXPECT_TRUE(group.wait_for(std::chrono::milliseconds(0)));
  // Finished but not joined: the host is still the group's, so a task
  // started now runs on another thread.
  std::atomic<long> second_tid{0};
  TaskGroup second(1, 1);
  second.start(0, [&] { second_tid = kernel_tid(); });
  second.join();
  group.join();
  EXPECT_NE(first_tid.load(), second_tid.load());
}

TEST(Hosts, RankKeepsItsLaneAfterANestedRegion) {
  // The rank is the parallel region's member 0 while the region runs;
  // afterwards it must be its own rank again, for the chaos, fault and
  // profile layers that key on the lane.
  std::array<std::atomic<int>, 4> lanes{};
  mp::run(4, [&](mp::Communicator& world) {
    smp::parallel(2, [](smp::Region&) {});
    lanes[static_cast<std::size_t>(world.rank())] = sched::bound_lane();
  });
  for (int r = 0; r < 4; ++r) EXPECT_EQ(lanes[static_cast<std::size_t>(r)].load(), r);
}

TEST(Hosts, RankSendsAfterANestedRegionCountUnderTheRank) {
  obs::Scope scope;
  mp::run(4, [](mp::Communicator& world) {
    smp::parallel(2, [](smp::Region&) {});
    if (world.rank() == 0) {
      for (int i = 1; i < world.size(); ++i) (void)world.recv<int>(mp::kAnySource, 0);
    } else {
      world.send(world.rank(), 0, 0);
    }
  });
  const obs::Profile profile = scope.finish();
  for (int r = 1; r < 4; ++r) {
    ASSERT_EQ(profile.tasks.count(r), 1u) << "task " << r;
    EXPECT_EQ(profile.tasks.at(r).value(obs::Counter::kMessagesSent), 1u) << "task " << r;
  }
}

}  // namespace
}  // namespace pml::thread
