/// \file failure_test.cpp
/// \brief Failure-injection tests: deadlock detection, rank crashes, and
/// runtime shutdown behavior.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <vector>

#include "core/error.hpp"
#include "mp/mp.hpp"

namespace pml::mp {
namespace {

TEST(Deadlock, RecvForExpiresInsteadOfHangingForever) {
  // Both ranks receive first — the classic cycle. recv_for turns the hang
  // into an observable timeout (the sendrecvDeadlock patternlet's trick).
  std::atomic<int> timeouts{0};
  run(2, [&](Communicator& comm) {
    const int partner = 1 - comm.rank();
    const auto got = comm.recv_for<int>(std::chrono::milliseconds(100), partner);
    if (!got) ++timeouts;
  });
  EXPECT_EQ(timeouts.load(), 2);
}

TEST(Deadlock, SendrecvBreaksTheCycle) {
  std::atomic<int> ok{0};
  run(2, [&](Communicator& comm) {
    const int partner = 1 - comm.rank();
    if (comm.sendrecv<int>(comm.rank(), partner, partner) == partner) ++ok;
  });
  EXPECT_EQ(ok.load(), 2);
}

TEST(Crash, RankExceptionPropagatesToCaller) {
  EXPECT_THROW(run(3,
                   [](Communicator& comm) {
                     if (comm.rank() == 1) throw UsageError("rank 1 exploded");
                   }),
               UsageError);
}

TEST(Crash, BlockedPeersAreWokenNotHung) {
  // Rank 1 dies while rank 0 waits for a message that will never come.
  // The runtime must poison the mailboxes so rank 0 aborts too — the whole
  // call returns (with the root-cause exception) instead of deadlocking.
  EXPECT_THROW(run(2,
                   [](Communicator& comm) {
                     if (comm.rank() == 1) throw UsageError("dead before send");
                     (void)comm.recv<int>(1);  // would block forever
                   }),
               UsageError);
}

TEST(Crash, PeerBlockedInCollectiveIsWoken) {
  EXPECT_THROW(run(4,
                   [](Communicator& comm) {
                     if (comm.rank() == 3) throw RuntimeFault("no barrier for me");
                     comm.barrier();
                   }),
               RuntimeFault);
}

TEST(Crash, PeerBlockedInSsendIsWoken) {
  // Rank 0 ssends to rank 1, which dies without receiving: the ack never
  // comes, but shutdown must release the sender.
  EXPECT_THROW(run(2,
                   [](Communicator& comm) {
                     if (comm.rank() == 1) throw UsageError("receiver died");
                     comm.ssend(1, 1);
                   }),
               UsageError);
}

TEST(Crash, SsendAfterPeerDiedReportsTheRootCause) {
  // Rank 0 survives its own aborted receive and then ssends to the dead
  // rank. The job is already shut down, so no ack can come: the ssend must
  // fail at once, and the caller must see rank 1's error, not a deadlock
  // diagnosis after the watchdog's grace period.
  EXPECT_THROW(run(2,
                   [](Communicator& comm) {
                     if (comm.rank() == 1) throw UsageError("receiver died");
                     try {
                       (void)comm.recv<int>(1);
                     } catch (const RuntimeFault&) {
                     }
                     comm.ssend(1, 1);
                   }),
               UsageError);
}

TEST(Validation, CollectiveArgumentsChecked) {
  run(2, [](Communicator& comm) {
    EXPECT_THROW((void)comm.broadcast(1, 5), UsageError);
    EXPECT_THROW((void)comm.reduce(1, op_sum<int>(), -1), UsageError);
    std::vector<int> wrong_size(3);
    if (comm.rank() == 0) {
      EXPECT_THROW((void)comm.scatter(wrong_size, 2, 0), UsageError);
    }
    std::vector<std::vector<int>> too_few(1);
    EXPECT_THROW((void)comm.alltoall(too_few), UsageError);
    comm.barrier();
  });
}

TEST(Validation, VectorReduceLengthMismatchFails) {
  EXPECT_THROW(run(2,
                   [](Communicator& comm) {
                     const std::vector<int> mine(
                         static_cast<std::size_t>(comm.rank() + 1), 1);
                     (void)comm.reduce(mine, op_sum<int>(), 0);
                   }),
               UsageError);
  // p = 4: interior rank 2 (it folds in rank 3 before sending to rank 0)
  // contributes a different length, with hops below and above the eager
  // threshold.
  for (const std::size_t n : {std::size_t{40}, std::size_t{4096}}) {
    EXPECT_THROW(run(4,
                     [n](Communicator& comm) {
                       const std::vector<std::int64_t> mine(
                           comm.rank() == 2 ? n + 4 : n, 1);
                       (void)comm.reduce(mine, op_sum<std::int64_t>(), 0);
                     }),
                 UsageError)
        << "n=" << n;
  }
}

}  // namespace
}  // namespace pml::mp
