/// \file stealing_test.cpp
/// \brief Tests for the work-stealing deque and pool.

#include "thread/stealing.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>

#include "analyze/analyze.hpp"
#include "core/error.hpp"

namespace pml::thread {
namespace {

TEST(WorkDeque, LifoForOwnerFifoForThief) {
  WorkDeque dq;
  std::vector<int> order;
  dq.push_bottom([&] { order.push_back(1); });
  dq.push_bottom([&] { order.push_back(2); });
  dq.push_bottom([&] { order.push_back(3); });
  EXPECT_EQ(dq.size(), 3u);

  (*dq.steal_top())();   // thief gets the OLDEST -> 1
  (*dq.pop_bottom())();  // owner gets the NEWEST -> 3
  (*dq.pop_bottom())();  // -> 2
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
  EXPECT_FALSE(dq.pop_bottom().has_value());
  EXPECT_FALSE(dq.steal_top().has_value());
}

TEST(StealingPool, RejectsBadConstruction) {
  EXPECT_THROW(StealingPool(0), UsageError);
  EXPECT_THROW(StealingPool(-2), UsageError);
}

TEST(StealingPool, ExecutesEverySubmittedTask) {
  StealingPool pool(3);
  std::atomic<int> ran{0};
  for (int i = 0; i < 200; ++i) pool.submit([&] { ++ran; });
  pool.wait_idle();
  EXPECT_EQ(ran.load(), 200);
  const auto counts = pool.executed_per_worker();
  EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), 0L), 200);
}

TEST(StealingPool, TasksSpawnedInsideWorkersRunToo) {
  StealingPool pool(3);
  std::atomic<int> leaves{0};
  // Each root task spawns 4 children from inside its worker.
  for (int i = 0; i < 8; ++i) {
    pool.submit([&] {
      for (int c = 0; c < 4; ++c) {
        pool.submit([&] { leaves.fetch_add(1); });
      }
    });
  }
  pool.wait_idle();
  EXPECT_EQ(leaves.load(), 32);
}

TEST(StealingPool, ImbalancedLoadGetsStolen) {
  // All external tasks land round-robin, but tasks spawned inside worker 0
  // pile onto its own deque; with worker 0 busy on slow tasks, the others
  // must steal. Assert the observable signature: at least one steal.
  StealingPool pool(4);
  std::atomic<long> done{0};
  pool.submit([&] {
    // One root task (on some worker) spawns 64 slow grandchildren onto
    // its own deque.
    for (int i = 0; i < 64; ++i) {
      pool.submit([&] {
        volatile long sink = 0;
        for (int k = 0; k < 30000; ++k) sink = sink + 1;
        done.fetch_add(1);
      });
    }
  });
  pool.wait_idle();
  EXPECT_EQ(done.load(), 64);
  const auto steals = pool.steals_per_worker();
  EXPECT_GT(std::accumulate(steals.begin(), steals.end(), 0L), 0);
  // And the work spread: more than one worker executed something.
  const auto counts = pool.executed_per_worker();
  int busy = 0;
  for (long c : counts) busy += c > 0 ? 1 : 0;
  EXPECT_GE(busy, 2);
}

TEST(StealingPool, WaitIdleOnEmptyPoolReturns) {
  StealingPool pool(2);
  pool.wait_idle();
  SUCCEED();
}

TEST(StealingPool, ThrowingTaskSurfacesAtWaitIdle) {
  StealingPool pool(2);
  std::atomic<int> ran{0};
  pool.submit([&] { ++ran; });
  pool.submit([] { throw RuntimeFault("stolen goods"); });
  pool.submit([&] { ++ran; });
  EXPECT_THROW(pool.wait_idle(), RuntimeFault);
  EXPECT_EQ(ran.load(), 2);
  pool.submit([&] { ++ran; });  // still usable
  pool.wait_idle();
  EXPECT_EQ(ran.load(), 3);
}

TEST(StealingPool, SubmitAfterShutdownThrows) {
  StealingPool pool(2);
  pool.shutdown();
  EXPECT_THROW(pool.submit([] {}), RuntimeFault);
}

TEST(StealingPool, ShutdownDrainsOutstandingWork) {
  std::atomic<int> ran{0};
  {
    StealingPool pool(2);
    for (int i = 0; i < 50; ++i) pool.submit([&] { ++ran; });
    // destructor shuts down and drains
  }
  EXPECT_EQ(ran.load(), 50);
}

TEST(StealingPool, RecursiveFibonacci) {
  // The classic recursive benchmark shape, bounded: fib(12) = 144 leaves
  // of value 1 plus... just compare against the scalar recursion.
  std::function<long(long)> fib_seq = [&](long n) {
    return n < 2 ? n : fib_seq(n - 1) + fib_seq(n - 2);
  };
  StealingPool pool(4);
  std::atomic<long> total{0};
  std::function<void(long)> fib = [&](long n) {
    if (n < 2) {
      total.fetch_add(n);
      return;
    }
    pool.submit([&, n] { fib(n - 1); });
    pool.submit([&, n] { fib(n - 2); });
  };
  pool.submit([&] { fib(12); });
  pool.wait_idle();
  EXPECT_EQ(total.load(), fib_seq(12));
}

TEST(StealingPool, ShutdownOrdersTaskWritesBeforeTheMaster) {
  // shutdown() joins the workers, so a read after it needs no wait_idle().
  analyze::Scope scope;
  long x = 0;
  StealingPool pool(2);
  pool.submit([&] {
    analyze::on_write(&x, "x");
    x = 1;
  });
  pool.shutdown();
  analyze::on_read(&x, "x");
  EXPECT_EQ(x, 1);
  const analyze::Report report = scope.finish();
  EXPECT_TRUE(report.clean()) << report.to_string();
}

}  // namespace
}  // namespace pml::thread
