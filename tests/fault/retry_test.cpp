/// \file retry_test.cpp
/// \brief Tests for the fault-tolerant communication layer:
/// send_with_retry / recv_retry under injected faults, the collective
/// timeout mode that degrades instead of hanging, and the bounded
/// collectives' isolation from the unbounded ones.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "core/error.hpp"
#include "fault/fault.hpp"
#include "mp/communicator.hpp"
#include "mp/op.hpp"
#include "mp/runtime.hpp"

namespace pml::mp {
namespace {

using namespace std::chrono_literals;

/// Two nodes of four cores, round-robin: node-02 (index 1) hosts the odd
/// ranks of an np=4 job — the layout every crash test below assumes.
RunOptions two_node_options() {
  RunOptions opts;
  opts.cluster = Cluster(2, 4, Placement::kRoundRobin);
  return opts;
}

TEST(SendWithRetry, RecoversFromASingleDrop) {
  fault::FaultScope scope{fault::FaultPlan::parse("drop:1")};
  std::atomic<int> attempts{0};
  std::atomic<int> received{-1};
  run(2, [&](Communicator& world) {
    if (world.rank() == 0) {
      RetryPolicy policy;
      policy.max_attempts = 5;
      policy.initial_backoff = 10ms;
      attempts = world.send_with_retry(42, 1, /*tag=*/3, policy);
    } else {
      received = world.recv<int>(0, 3);
    }
  });
  EXPECT_EQ(attempts.load(), 2);  // first delivery dropped, second landed
  EXPECT_EQ(received.load(), 42);
  EXPECT_EQ(fault::stats().dropped, 1u);
}

TEST(SendWithRetry, GivesUpOnADeadLinkWithADiagnosis) {
  fault::FaultScope scope{fault::FaultPlan::parse("drop:100%")};
  std::atomic<bool> gave_up{false};
  std::atomic<bool> receiver_saw_nothing{false};
  run(2, [&](Communicator& world) {
    if (world.rank() == 0) {
      RetryPolicy policy;
      policy.max_attempts = 3;
      policy.initial_backoff = 5ms;
      policy.max_backoff = 10ms;
      try {
        world.send_with_retry(1, 1, 3, policy);
      } catch (const RuntimeFault& e) {
        gave_up = true;
        EXPECT_NE(std::string(e.what()).find("3 attempts"), std::string::npos);
      }
    } else {
      receiver_saw_nothing = !world.recv_for<int>(200ms, 0, 3).has_value();
    }
  });
  EXPECT_TRUE(gave_up.load());
  EXPECT_TRUE(receiver_saw_nothing.load());
  EXPECT_EQ(fault::stats().dropped, 3u);  // one per attempt
}

/// Backoff schedules whose wait slices cannot grow past zero: each one
/// would make the retry loops resend or re-poll without waiting.
std::vector<RetryPolicy> policies_that_cannot_wait() {
  std::vector<RetryPolicy> out(4);
  out[0].backoff_multiplier = 0;
  out[1].backoff_multiplier = -2;
  out[2].max_backoff = 0ms;
  out[3].max_backoff = -5ms;
  return out;
}

TEST(SendWithRetry, RejectsAPolicyThatCannotWait) {
  for (const RetryPolicy& policy : policies_that_cannot_wait()) {
    EXPECT_THROW(run(2,
                     [&](Communicator& world) {
                       if (world.rank() == 0) world.send_with_retry(1, 1, 3, policy);
                     }),
                 UsageError)
        << "multiplier " << policy.backoff_multiplier << ", max_backoff "
        << policy.max_backoff.count() << "ms";
  }
}

TEST(RecvRetry, RejectsAPolicyThatCannotWait) {
  for (const RetryPolicy& policy : policies_that_cannot_wait()) {
    EXPECT_THROW(run(1,
                     [&](Communicator& world) {
                       (void)world.recv_retry<int>(50ms, 0, 3, nullptr, policy);
                     }),
                 UsageError)
        << "multiplier " << policy.backoff_multiplier << ", max_backoff "
        << policy.max_backoff.count() << "ms";
  }
}

TEST(RecvRetry, RidesOutADelayedMessage) {
  fault::FaultScope scope{fault::FaultPlan::parse("delay:20,seed:11")};
  std::atomic<bool> got_it{false};
  run(2, [&](Communicator& world) {
    if (world.rank() == 0) {
      world.send(7, 1, /*tag=*/2);  // the sender sleeps the injected hold
    } else {
      const auto got = world.recv_retry<int>(2s, 0, 2);
      got_it = got.has_value() && *got == 7;
    }
  });
  EXPECT_TRUE(got_it.load());
}

TEST(RecvRetry, ReportsAGenuinelyLostMessageAsNullopt) {
  fault::FaultScope scope{fault::FaultPlan::parse("drop:1")};
  std::atomic<bool> empty{false};
  run(2, [&](Communicator& world) {
    if (world.rank() == 0) {
      world.send(7, 1, 2);  // dropped: the lane's first delivery
    } else {
      empty = !world.recv_retry<int>(80ms, 0, 2).has_value();
    }
  });
  EXPECT_TRUE(empty.load());
  EXPECT_EQ(fault::stats().dropped, 1u);
}

TEST(CollectiveTimeout, NamesTheSilentRankAndItsNode) {
  fault::FaultScope scope{fault::FaultPlan::parse("crash:node-02@0")};
  RunOptions opts = two_node_options();
  opts.collective_timeout = 200ms;
  // Written by each rank's own thread only; read after run() joins them.
  std::array<std::string, 4> what{};
  EXPECT_THROW(
      run(
          4,
          [&](Communicator& world) {
            try {
              (void)world.reduce(world.rank() + 1, op_sum<int>(), 0);
            } catch (const fault::NodeCrashFault&) {
              throw;  // the victims still die as injected
            } catch (const RuntimeFault& e) {
              what[static_cast<std::size_t>(world.rank())] = e.what();
            }
          },
          opts),
      fault::NodeCrashFault);
  // The root timed out waiting for dead rank 1 and its message names the
  // collective, the silent rank's node, and the injected crashes.
  const std::string& msg = what[0];
  EXPECT_NE(msg.find("collective timeout"), std::string::npos) << msg;
  EXPECT_NE(msg.find("reduce"), std::string::npos) << msg;
  EXPECT_NE(msg.find("for rank 1"), std::string::npos) << msg;
  EXPECT_NE(msg.find("node-02"), std::string::npos) << msg;
  EXPECT_NE(msg.find("crashed rank(s)"), std::string::npos) << msg;
}

TEST(CollectiveTimeout, ReduceWithTimeoutSkipsTheCrashedRanks) {
  fault::FaultScope scope{fault::FaultPlan::parse("crash:node-02@0")};
  // Written by rank 0's thread only; read after run() joins it.
  Partial<int> at_root;
  EXPECT_THROW(
      run(
          4,
          [&](Communicator& world) {
            auto part =
                world.reduce_with_timeout(world.rank() + 1, op_sum<int>(), 0, 300ms);
            if (world.rank() == 0) at_root = std::move(part);
          },
          two_node_options()),
      fault::NodeCrashFault);
  // Ranks 1 and 3 died before contributing: the root gets 1 (its own) + 3
  // (rank 2's) and an explicit list of who never answered.
  EXPECT_FALSE(at_root.complete());
  EXPECT_EQ(at_root.value, 4);
  EXPECT_EQ(at_root.missing, (std::vector<int>{1, 3}));
}

TEST(BarrierFor, CompletesNormallyWithoutFaults) {
  std::array<std::atomic<bool>, 3> ok{};
  run(3, [&](Communicator& world) {
    ok[static_cast<std::size_t>(world.rank())] = world.barrier_for(2s);
  });
  EXPECT_TRUE(ok[0] && ok[1] && ok[2]);
}

TEST(BarrierFor, DegradesToFalseWhenANodeCrashes) {
  fault::FaultScope scope{fault::FaultPlan::parse("crash:node-02@0")};
  std::array<std::atomic<bool>, 4> verdict{true, true, true, true};
  EXPECT_THROW(
      run(
          4,
          [&](Communicator& world) {
            verdict[static_cast<std::size_t>(world.rank())] =
                world.barrier_for(200ms);
          },
          two_node_options()),
      fault::NodeCrashFault);
  // The survivors were released with a degraded verdict, not left hanging.
  EXPECT_FALSE(verdict[0].load());
  EXPECT_FALSE(verdict[2].load());
}

// The bounded collectives have tags of their own: a report or contribution
// that lands after the root gave up is never consumed by the unbounded
// collective that follows. In both tests the late rank waits until the
// root has given up, so it is late on every schedule.

TEST(BarrierFor, ALateReportDoesNotReleaseTheNextBarrier) {
  std::atomic<bool> root_gave_up{false};
  // Each written by one rank's thread; read after run() joins them.
  std::chrono::steady_clock::time_point root_left{};
  std::chrono::steady_clock::time_point late_entered{};
  run(2, [&](Communicator& world) {
    if (world.rank() == 0) {
      EXPECT_FALSE(world.barrier_for(20ms));
      root_gave_up = true;
      world.barrier();
      root_left = std::chrono::steady_clock::now();
    } else {
      while (!root_gave_up) std::this_thread::sleep_for(1ms);
      EXPECT_FALSE(world.barrier_for(20ms));
      std::this_thread::sleep_for(200ms);
      late_entered = std::chrono::steady_clock::now();
      world.barrier();
    }
  });
  // Rank 0 cannot leave the barrier before rank 1 has entered it.
  const auto early =
      std::chrono::duration_cast<std::chrono::milliseconds>(late_entered - root_left);
  EXPECT_LE(early.count(), 0) << "rank 0 left the barrier " << early.count()
                              << " ms before rank 1 entered it";
}

TEST(CollectiveTimeout, ALateContributionDoesNotReachTheNextReduce) {
  std::atomic<bool> root_gave_up{false};
  // Written by rank 0's thread only; read after run() joins it.
  Partial<int> bounded;
  int total = 0;
  run(3, [&](Communicator& world) {
    const int r = world.rank();
    if (r == 2) {
      while (!root_gave_up) std::this_thread::sleep_for(1ms);
    }
    auto part = world.reduce_with_timeout(r + 1, op_sum<int>(), 0, 20ms);
    if (r == 0) {
      bounded = std::move(part);
      root_gave_up = true;
    }
    const int sum = world.reduce(10 * (r + 1), op_sum<int>(), 0);
    if (r == 0) total = sum;
  });
  EXPECT_EQ(bounded.value, 3);
  EXPECT_EQ(bounded.missing, (std::vector<int>{2}));
  EXPECT_EQ(total, 60);  // 10 + 20 + 30: rank 2's late 3 stays out of it
}

}  // namespace
}  // namespace pml::mp
