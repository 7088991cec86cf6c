/// \file thread_test.cpp
/// \brief Unit tests for Thread and the fork-join helpers.

#include "thread/thread.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <set>

#include "analyze/analyze.hpp"
#include "core/error.hpp"
#include "thread/mutex.hpp"

namespace pml::thread {
namespace {

TEST(Thread, RunsBodyWithItsId) {
  std::atomic<int> seen{-1};
  {
    Thread t(7, [&](int id) { seen = id; });
    EXPECT_EQ(t.id(), 7);
    t.join();
  }
  EXPECT_EQ(seen.load(), 7);
}

TEST(Thread, JoinIsIdempotent) {
  Thread t(0, [](int) {});
  t.join();
  EXPECT_NO_THROW(t.join());
  EXPECT_FALSE(t.joinable());
}

TEST(Thread, DestructorJoinsRatherThanTerminates) {
  std::atomic<bool> done{false};
  {
    Thread t(0, [&](int) { done = true; });
    // no explicit join
  }
  EXPECT_TRUE(done.load());
}

TEST(Thread, MoveTransfersOwnership) {
  std::atomic<int> runs{0};
  Thread a(1, [&](int) { ++runs; });
  Thread b = std::move(a);
  EXPECT_EQ(b.id(), 1);
  b.join();
  EXPECT_EQ(runs.load(), 1);
}

TEST(Thread, CreateAndJoinOrderTheWorkerBetweenItsCreatorsAccesses) {
  // pthreads/forkJoin's lesson: a write before pthread_create and a read
  // after pthread_join are ordered with everything the worker does.
  analyze::Scope scope;
  long x = 0;
  analyze::on_write(&x, "x");
  x = 1;
  Thread t(0, [&](int) {
    analyze::on_write(&x, "x");
    x = 2;
  });
  t.join();
  analyze::on_read(&x, "x");
  EXPECT_EQ(x, 2);
  const analyze::Report report = scope.finish();
  EXPECT_TRUE(report.clean()) << report.to_string();
}

TEST(ForkJoin, EveryIdRunsExactlyOnce) {
  constexpr int kN = 8;
  Mutex mu;
  std::multiset<int> ids;
  fork_join(kN, [&](int id) {
    LockGuard g(mu);
    ids.insert(id);
  });
  EXPECT_EQ(ids.size(), static_cast<std::size_t>(kN));
  for (int i = 0; i < kN; ++i) EXPECT_EQ(ids.count(i), 1u);
}

TEST(ForkJoin, SingleThreadWorks) {
  int calls = 0;
  fork_join(1, [&](int id) {
    EXPECT_EQ(id, 0);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ForkJoin, RejectsNonpositiveCount) {
  EXPECT_THROW(fork_join(0, [](int) {}), UsageError);
  EXPECT_THROW(fork_join(-3, [](int) {}), UsageError);
}

TEST(ForkJoin, WorkerExceptionPropagates) {
  EXPECT_THROW(fork_join(4,
                         [](int id) {
                           if (id == 2) throw RuntimeFault("worker 2 failed");
                         }),
               RuntimeFault);
}

TEST(ForkJoinInline, CallerIsThreadZero) {
  const auto caller = std::this_thread::get_id();
  std::atomic<bool> zero_is_caller{false};
  fork_join_inline(4, [&](int id) {
    if (id == 0) zero_is_caller = (std::this_thread::get_id() == caller);
  });
  EXPECT_TRUE(zero_is_caller.load());
}

TEST(ForkJoinInline, AllIdsRun) {
  std::atomic<int> count{0};
  std::atomic<int> sum{0};
  fork_join_inline(5, [&](int id) {
    ++count;
    sum += id;
  });
  EXPECT_EQ(count.load(), 5);
  EXPECT_EQ(sum.load(), 0 + 1 + 2 + 3 + 4);
}

TEST(ForkJoinInline, CallerExceptionPropagates) {
  EXPECT_THROW(fork_join_inline(2,
                                [](int id) {
                                  if (id == 0) throw UsageError("caller failed");
                                }),
               UsageError);
}

}  // namespace
}  // namespace pml::thread
