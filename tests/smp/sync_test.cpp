/// \file sync_test.cpp
/// \brief Unit tests for atomic updates and the ordered construct.

#include "smp/sync.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include "smp/for.hpp"
#include "smp/team.hpp"
#include "thread/thread.hpp"

namespace pml::smp {
namespace {

TEST(AtomicUpdate, AddIsExactUnderContention) {
  long counter = 0;
  pml::thread::fork_join(4, [&](int) {
    for (int i = 0; i < 50000; ++i) atomic_add(counter, 1L);
  });
  EXPECT_EQ(counter, 4L * 50000);
}

TEST(AtomicUpdate, DoubleAddIsExactUnderContention) {
  // The Fig. 30 'atomic' deposit: balance += 1.0 from many threads.
  double balance = 0.0;
  pml::thread::fork_join(4, [&](int) {
    for (int i = 0; i < 50000; ++i) atomic_add(balance, 1.0);
  });
  EXPECT_DOUBLE_EQ(balance, 4.0 * 50000);
}

TEST(AtomicUpdate, ArbitraryCombineFunction) {
  long value = 1;
  atomic_update(value, 5L, [](long a, long b) { return a * b; });
  EXPECT_EQ(value, 5);
  atomic_update(value, 3L, [](long a, long b) { return a * b; });
  EXPECT_EQ(value, 15);
}

TEST(AtomicUpdate, ReturnsTheNewValue) {
  long v = 10;
  EXPECT_EQ(atomic_add(v, 7L), 17);
}

TEST(AtomicReadWrite, RoundTrip) {
  double x = 0.0;
  atomic_write(x, 2.5);
  EXPECT_DOUBLE_EQ(atomic_read(x), 2.5);
}

TEST(AtomicUpdate, MaxUnderContention) {
  long best = 0;
  pml::thread::fork_join(4, [&](int id) {
    for (int i = 0; i < 10000; ++i) {
      atomic_update(best, static_cast<long>(id * 10000 + i),
                    [](long a, long b) { return a > b ? a : b; });
    }
  });
  EXPECT_EQ(best, 3L * 10000 + 9999);
}

TEST(OrderedTicket, ExecutesInTicketOrderRegardlessOfArrival) {
  OrderedTicket ticket;
  std::vector<int> order;
  parallel(6, [&](Region& r) {
    // Arrive in scrambled wall-clock order; run_in_order must serialize by
    // ticket anyway.
    const int my = r.thread_num();
    std::this_thread::sleep_for(std::chrono::milliseconds((5 - my) * 2));
    ticket.run_in_order(my, [&] { order.push_back(my); });
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

TEST(OrderedTicket, CustomFirstTicket) {
  OrderedTicket ticket(10);
  std::vector<int> order;
  parallel(3, [&](Region& r) {
    ticket.run_in_order(10 + r.thread_num(), [&] { order.push_back(r.thread_num()); });
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(OrderedTicket, OrderedLoopIdiom) {
  // The `ordered` construct: a dynamic loop whose output must respect the
  // iteration order.
  OrderedTicket ticket;
  std::vector<std::int64_t> printed;
  parallel(4, [&](Region& r) {
    r.for_each(0, 16, Schedule::dynamic(1), [&](std::int64_t i) {
      ticket.run_in_order(i, [&] { printed.push_back(i); });
    });
  });
  ASSERT_EQ(printed.size(), 16u);
  for (std::int64_t i = 0; i < 16; ++i) {
    EXPECT_EQ(printed[static_cast<std::size_t>(i)], i);
  }
}

TEST(OrderedTicket, ThrowingTurnStillAdmitsTheNext) {
  // Turn 0 throws. The ticket must still advance, or turn 1 (and with it
  // the team's join) waits forever. The test bounds its own wait: if turn
  // 1 is still stuck after the grace period, it runs turn 0 again to
  // release it, so a broken ticket fails instead of hanging.
  OrderedTicket ticket;
  EXPECT_THROW(ticket.run_in_order(0, [] { throw std::runtime_error("turn 0"); }),
               std::runtime_error);
  std::atomic<bool> ran{false};
  pml::thread::Thread next(1, [&](int) { ticket.run_in_order(1, [&] { ran = true; }); });
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (!ran.load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const bool admitted = ran.load();
  if (!admitted) ticket.run_in_order(0, [] {});
  next.join();
  EXPECT_TRUE(admitted);
}

}  // namespace
}  // namespace pml::smp
