/// \file team_test.cpp
/// \brief Unit tests for parallel regions: identity, barrier, critical,
/// single, master, sections.

#include "smp/team.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <string>
#include <thread>

#include "core/error.hpp"
#include "thread/adaptive_wait.hpp"
#include "thread/mutex.hpp"
#include "thread/thread.hpp"

namespace pml::smp {
namespace {

TEST(Parallel, TeamHasRequestedSizeAndDistinctIds) {
  pml::thread::Mutex mu;
  std::set<int> ids;
  parallel(5, [&](Region& r) {
    EXPECT_EQ(r.num_threads(), 5);
    pml::thread::LockGuard g(mu);
    ids.insert(r.thread_num());
  });
  EXPECT_EQ(ids, (std::set<int>{0, 1, 2, 3, 4}));
}

TEST(Parallel, DefaultThreadCountIsUsedAndSettable) {
  set_default_num_threads(3);
  int seen = 0;
  parallel([&](Region& r) {
    if (r.thread_num() == 0) seen = r.num_threads();
  });
  EXPECT_EQ(seen, 3);
  EXPECT_EQ(default_num_threads(), 3);
}

TEST(Parallel, SetDefaultRejectsNonpositive) {
  EXPECT_THROW(set_default_num_threads(0), UsageError);
}

TEST(Parallel, BodyExceptionPropagates) {
  EXPECT_THROW(parallel(3,
                        [](Region& r) {
                          if (r.thread_num() == 1) throw RuntimeFault("t1");
                        }),
               RuntimeFault);
}

TEST(Parallel, NestedRegionsWork) {
  std::atomic<int> inner_total{0};
  parallel(2, [&](Region&) {
    parallel(3, [&](Region& inner) {
      EXPECT_EQ(inner.num_threads(), 3);
      ++inner_total;
    });
  });
  EXPECT_EQ(inner_total.load(), 2 * 3);
}

TEST(RegionBarrier, SeparatesPhases) {
  constexpr int kN = 6;
  std::atomic<int> arrived{0};
  std::atomic<bool> violated{false};
  parallel(kN, [&](Region& r) {
    arrived.fetch_add(1);
    r.barrier();
    if (arrived.load() != kN) violated = true;
  });
  EXPECT_FALSE(violated.load());
}

TEST(RegionCritical, ProtectsSharedUpdate) {
  long counter = 0;
  parallel(4, [&](Region& r) {
    for (int i = 0; i < 25000; ++i) {
      r.critical([&] { counter += 1; });
    }
  });
  EXPECT_EQ(counter, 4L * 25000);
}

TEST(RegionCritical, NamedSectionsAreIndependentLocks) {
  // Two named criticals can be held concurrently; same-name excludes.
  long a = 0;
  long b = 0;
  parallel(4, [&](Region& r) {
    for (int i = 0; i < 10000; ++i) {
      r.critical("a", [&] { a += 1; });
      r.critical("b", [&] { b += 1; });
    }
  });
  EXPECT_EQ(a, 40000);
  EXPECT_EQ(b, 40000);
}

TEST(RegionCritical, UnnamedSectionIsGlobalAcrossTeams) {
  // Two teams run at once; the unnamed critical is one lock for the whole
  // process, so no read-pause-write below loses an update to the other team.
  constexpr long kPerThread = 5000;
  long counter = 0;
  pml::thread::fork_join(2, [&](int) {
    parallel(2, [&](Region& r) {
      for (long i = 0; i < kPerThread; ++i) {
        r.critical([&] {
          const long seen = counter;
          pml::thread::cpu_relax();
          counter = seen + 1;
        });
      }
    });
  });
  EXPECT_EQ(counter, 2 * 2 * kPerThread);
}

TEST(RegionSingle, ExactlyOneExecutorPerConstruct) {
  std::atomic<int> executions{0};
  std::atomic<int> reported_true{0};
  parallel(6, [&](Region& r) {
    if (r.single([&] { ++executions; })) ++reported_true;
  });
  EXPECT_EQ(executions.load(), 1);
  EXPECT_EQ(reported_true.load(), 1);
}

TEST(RegionSingle, SeparateConstructsExecuteSeparately) {
  std::atomic<int> first{0};
  std::atomic<int> second{0};
  parallel(4, [&](Region& r) {
    r.single([&] { ++first; });
    r.single([&] { ++second; });
  });
  EXPECT_EQ(first.load(), 1);
  EXPECT_EQ(second.load(), 1);
}

TEST(RegionSingle, ImplicitBarrierOrdersFollowingCode) {
  std::atomic<bool> single_done{false};
  std::atomic<bool> violated{false};
  parallel(4, [&](Region& r) {
    r.single([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      single_done = true;
    });
    if (!single_done.load()) violated = true;
  });
  EXPECT_FALSE(violated.load());
}

TEST(RegionMaster, OnlyThreadZeroRuns) {
  std::atomic<int> runs{0};
  std::atomic<int> runner{-1};
  parallel(4, [&](Region& r) {
    r.master([&] {
      ++runs;
      runner = r.thread_num();
    });
  });
  EXPECT_EQ(runs.load(), 1);
  EXPECT_EQ(runner.load(), 0);
}

TEST(RegionSections, EachSectionRunsExactlyOnce) {
  std::atomic<int> counts[4] = {};
  parallel(3, [&](Region& r) {
    std::vector<std::function<void()>> sections;
    for (int s = 0; s < 4; ++s) {
      sections.push_back([&counts, s] { counts[s].fetch_add(1); });
    }
    r.sections(sections);
  });
  for (int s = 0; s < 4; ++s) EXPECT_EQ(counts[s].load(), 1);
}

TEST(RegionSections, MoreThreadsThanSections) {
  std::atomic<int> total{0};
  parallel(8, [&](Region& r) {
    r.sections({[&] { ++total; }, [&] { ++total; }});
  });
  EXPECT_EQ(total.load(), 2);
}

TEST(RegionReduce, EveryThreadReceivesCombinedValue) {
  std::atomic<int> correct{0};
  const int n = 5;
  parallel(n, [&](Region& r) {
    const int sum = r.reduce(r.thread_num() + 1, [](int a, int b) { return a + b; }, 0);
    if (sum == n * (n + 1) / 2) ++correct;
  });
  EXPECT_EQ(correct.load(), n);
}

TEST(RegionReduce, DeterministicOrderForNonCommutativeOps) {
  // Combine by string concatenation: deterministic thread order 0..n-1.
  std::string result;
  parallel(4, [&](Region& r) {
    const std::string combined = r.reduce(
        std::string(1, static_cast<char>('a' + r.thread_num())),
        [](std::string x, std::string y) { return x + y; }, std::string{});
    r.master([&] { result = combined; });
  });
  EXPECT_EQ(result, "abcd");
}

TEST(RegionReduce, BackToBackReductionsDoNotInterfere) {
  int sum = 0;
  int prod = 0;
  parallel(3, [&](Region& r) {
    const int s = r.reduce(r.thread_num() + 1, [](int a, int b) { return a + b; }, 0);
    const int p = r.reduce(r.thread_num() + 1, [](int a, int b) { return a * b; }, 1);
    r.master([&] {
      sum = s;
      prod = p;
    });
  });
  EXPECT_EQ(sum, 6);
  EXPECT_EQ(prod, 6);
}

}  // namespace
}  // namespace pml::smp
