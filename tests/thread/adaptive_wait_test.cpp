/// \file adaptive_wait_test.cpp
/// \brief Tests for lock_briefly, the brief-spin acquisition of the
/// runtime's own short-held locks.

#include "thread/adaptive_wait.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>

#include "sched/sched.hpp"
#include "thread/thread.hpp"

namespace pml::thread {
namespace {

/// Each of \p threads adds \p per_thread to a plain counter, taking the
/// lock through lock_briefly; returns the final count.
long count_through_lock_briefly(int threads, long per_thread) {
  std::mutex mu;
  long counter = 0;
  fork_join(threads, [&](int) {
    for (long i = 0; i < per_thread; ++i) {
      lock_briefly(mu);
      std::lock_guard lock(mu, std::adopt_lock);
      ++counter;
    }
  });
  return counter;
}

TEST(LockBriefly, FourThreadsCountExactly) {
  EXPECT_EQ(count_through_lock_briefly(4, 50000), 4L * 50000);
}

TEST(LockBriefly, FourThreadsCountExactlyUnderAChaosSeed) {
  // A chaos seed turns the spin off: every collision takes the plain lock.
  sched::ChaosScope chaos(7);
  EXPECT_EQ(count_through_lock_briefly(4, 5000), 4L * 5000);
}

TEST(LockBriefly, LockHeldPastTheSpinBudgetIsAcquiredOnceReleased) {
  std::mutex mu;
  mu.lock();
  std::atomic<bool> acquired{false};
  std::thread waiter([&] {
    lock_briefly(mu);
    acquired.store(true);
    mu.unlock();
  });
  // 20 ms is far past the spin budget (about 1.5 µs): the waiter has given
  // up spinning and sleeps in mu.lock() until the release.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(acquired.load());
  mu.unlock();
  waiter.join();
  EXPECT_TRUE(acquired.load());
}

TEST(LockBriefly, ReacquiresAReleasedUniqueLock) {
  // The mailbox's receive re-locks its unique_lock this way after a wake.
  std::mutex mu;
  std::unique_lock lock(mu);
  lock.unlock();
  std::thread holder([&] {
    lock_briefly(mu);
    std::lock_guard held(mu, std::adopt_lock);
  });
  lock_briefly(lock);
  EXPECT_TRUE(lock.owns_lock());
  lock.unlock();
  holder.join();
}

}  // namespace
}  // namespace pml::thread
