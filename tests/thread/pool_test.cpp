/// \file pool_test.cpp
/// \brief Unit tests for the master-worker thread pool.

#include "thread/pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>

#include "analyze/analyze.hpp"
#include "core/error.hpp"

namespace pml::thread {
namespace {

TEST(Pool, RejectsBadConstruction) {
  EXPECT_THROW(Pool(0), UsageError);
  EXPECT_THROW(Pool(-1), UsageError);
}

TEST(Pool, ExecutesEverySubmittedTask) {
  Pool pool(3);
  std::atomic<int> ran{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&](int) { ++ran; });
  }
  pool.wait_idle();
  EXPECT_EQ(ran.load(), 100);
}

TEST(Pool, WorkerIdsAreInRange) {
  Pool pool(4);
  std::atomic<bool> bad_id{false};
  for (int i = 0; i < 50; ++i) {
    pool.submit([&](int worker) {
      if (worker < 0 || worker >= 4) bad_id = true;
    });
  }
  pool.wait_idle();
  EXPECT_FALSE(bad_id.load());
}

TEST(Pool, TasksPerWorkerSumsToSubmitted) {
  Pool pool(4);
  constexpr int kTasks = 200;
  for (int i = 0; i < kTasks; ++i) pool.submit([](int) {});
  pool.wait_idle();
  const auto counts = pool.tasks_per_worker();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), 0L), kTasks);
}

TEST(Pool, WaitIdleOnEmptyPoolReturns) {
  Pool pool(2);
  pool.wait_idle();  // must not hang
  SUCCEED();
}

TEST(Pool, SubmitAfterShutdownThrows) {
  Pool pool(2);
  pool.shutdown();
  EXPECT_THROW(pool.submit([](int) {}), RuntimeFault);
}

TEST(Pool, EmptyTaskRejected) {
  Pool pool(1);
  EXPECT_THROW(pool.submit(Pool::Task{}), UsageError);
}

TEST(Pool, ShutdownDrainsQueue) {
  std::atomic<int> ran{0};
  {
    Pool pool(2);
    for (int i = 0; i < 64; ++i) {
      pool.submit([&](int) { ++ran; });
    }
    pool.shutdown();
  }
  EXPECT_EQ(ran.load(), 64);
}

TEST(Pool, DestructorShutsDown) {
  std::atomic<int> ran{0};
  {
    Pool pool(2);
    for (int i = 0; i < 32; ++i) pool.submit([&](int) { ++ran; });
  }
  EXPECT_EQ(ran.load(), 32);
}

TEST(Pool, ThrowingTaskSurfacesAtWaitIdle) {
  Pool pool(2);
  std::atomic<int> ran{0};
  pool.submit([&](int) { ++ran; });
  pool.submit([](int) { throw RuntimeFault("task exploded"); });
  pool.submit([&](int) { ++ran; });
  EXPECT_THROW(pool.wait_idle(), RuntimeFault);
  // Error consumed; remaining tasks ran; the pool is still usable.
  EXPECT_EQ(ran.load(), 2);
  pool.submit([&](int) { ++ran; });
  pool.wait_idle();
  EXPECT_EQ(ran.load(), 3);
}

TEST(Pool, OnlyFirstTaskErrorIsKept) {
  Pool pool(1);
  pool.submit([](int) { throw UsageError("first"); });
  pool.submit([](int) { throw RuntimeFault("second"); });
  try {
    pool.wait_idle();
    FAIL() << "expected a throw";
  } catch (const UsageError& e) {
    EXPECT_STREQ(e.what(), "first");
  }
  // The second error was dropped (documented: first error wins).
  pool.wait_idle();
}

TEST(Pool, SlowTasksSpreadAcrossWorkers) {
  Pool pool(4);
  for (int i = 0; i < 16; ++i) {
    pool.submit([](int) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    });
  }
  pool.wait_idle();
  const auto counts = pool.tasks_per_worker();
  int busy_workers = 0;
  for (long c : counts) {
    if (c > 0) ++busy_workers;
  }
  // 16 tasks of 5ms each on 4 workers: more than one worker must have run.
  EXPECT_GE(busy_workers, 2);
}

TEST(Pool, ShutdownOrdersTaskWritesBeforeTheMaster) {
  // shutdown() joins the workers, so a read after it needs no wait_idle().
  analyze::Scope scope;
  long x = 0;
  Pool pool(2);
  pool.submit([&](int) {
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
