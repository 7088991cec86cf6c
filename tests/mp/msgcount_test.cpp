/// \file msgcount_test.cpp
/// \brief Communication-complexity tests: with the message trace enabled,
/// the exact message counts of each collective algorithm are asserted —
/// the structural half of the tree-vs-flat and tree-vs-ring ablations,
/// independent of wall-clock noise.

#include <gtest/gtest.h>

#include <cmath>

#include "core/trace.hpp"
#include "mp/mp.hpp"

namespace pml::mp {
namespace {

int ceil_log2(int p) {
  int rounds = 0;
  for (int m = 1; m < p; m <<= 1) ++rounds;
  return rounds;
}

/// Runs \p body on \p np ranks and returns the total delivered messages.
template <typename Body>
std::size_t messages_of(int np, Body&& body, RunOptions opts = {}) {
  pml::Trace trace;
  opts.message_trace = &trace;
  run(np, std::forward<Body>(body), opts);
  return trace.events("message").size();
}

class MsgCountSweep : public ::testing::TestWithParam<int> {};

TEST_P(MsgCountSweep, TreeReduceUsesExactlyPMinus1Messages) {
  const int np = GetParam();
  const auto n = messages_of(np, [](Communicator& comm) {
    (void)comm.reduce(comm.rank(), op_sum<int>(), 0);
  });
  EXPECT_EQ(n, static_cast<std::size_t>(np - 1));
}

TEST_P(MsgCountSweep, TreeAndFlatBroadcastBothUsePMinus1Messages) {
  // Same message count — the tree's advantage is *rounds*, not messages.
  const int np = GetParam();
  const auto tree = messages_of(np, [](Communicator& comm) {
    (void)comm.broadcast(comm.rank() == 0 ? 9 : 0, 0);
  });
  const auto flat = messages_of(np, [](Communicator& comm) {
    (void)comm.flat_broadcast(comm.rank() == 0 ? 9 : 0, 0);
  });
  EXPECT_EQ(tree, static_cast<std::size_t>(np - 1));
  EXPECT_EQ(flat, static_cast<std::size_t>(np - 1));
}

TEST_P(MsgCountSweep, DisseminationBarrierUsesPTimesCeilLgPMessages) {
  const int np = GetParam();
  const auto n = messages_of(np, [](Communicator& comm) { comm.barrier(); });
  EXPECT_EQ(n, static_cast<std::size_t>(np) * static_cast<std::size_t>(ceil_log2(np)));
}

TEST_P(MsgCountSweep, ClassicAllreduceUses2PMinus2Messages) {
  const int np = GetParam();
  const auto n = messages_of(np, [](Communicator& comm) {
    (void)comm.allreduce(comm.rank(), op_sum<int>());
  });
  EXPECT_EQ(n, 2u * static_cast<std::size_t>(np - 1));
}

TEST_P(MsgCountSweep, ExscanIsASingleForwardChainOfPMinus1Messages) {
  // One pass: rank r receives the exclusive prefix from r-1 and forwards
  // the inclusive prefix to r+1. No second shift pass.
  const int np = GetParam();
  const auto n = messages_of(np, [](Communicator& comm) {
    (void)comm.exscan(comm.rank() + 1, op_sum<int>());
  });
  EXPECT_EQ(n, static_cast<std::size_t>(np - 1));
}

TEST_P(MsgCountSweep, RingAllreduceUses2PTimesPMinus1Messages) {
  // p-1 reduce-scatter steps + p-1 allgather steps, one send per rank per
  // step: 2p(p-1) messages — more than the tree's 2(p-1), but each carries
  // only an N/p-sized block (the bandwidth-for-messages trade).
  const int np = GetParam();
  const auto n = messages_of(np, [np](Communicator& comm) {
    std::vector<int> v(static_cast<std::size_t>(np) * 2, comm.rank());
    (void)comm.ring_allreduce(std::move(v), op_sum<int>());
  });
  if (np > 1) {
    EXPECT_EQ(n, 2u * static_cast<std::size_t>(np) * static_cast<std::size_t>(np - 1));
  } else {
    EXPECT_EQ(n, 0u);
  }
}

TEST_P(MsgCountSweep, AlltoallUsesPTimesPMinus1Messages) {
  const int np = GetParam();
  const auto n = messages_of(np, [np](Communicator& comm) {
    std::vector<std::vector<int>> out(static_cast<std::size_t>(np),
                                      std::vector<int>{comm.rank()});
    (void)comm.alltoall(out);
  });
  EXPECT_EQ(n, static_cast<std::size_t>(np) * static_cast<std::size_t>(np - 1));
}

INSTANTIATE_TEST_SUITE_P(ProcessCounts, MsgCountSweep, ::testing::Values(2, 3, 4, 5, 8));

TEST(MsgCount, SendrecvIsTwoMessages) {
  const auto n = messages_of(2, [](Communicator& comm) {
    (void)comm.sendrecv<int>(comm.rank(), 1 - comm.rank(), 1 - comm.rank());
  });
  EXPECT_EQ(n, 2u);
}

TEST(MsgCount, TraceRecordsSourceDestinationAndBytes) {
  pml::Trace trace;
  RunOptions opts;
  opts.message_trace = &trace;
  run(2, [](Communicator& comm) {
    if (comm.rank() == 0) {
      comm.send(std::vector<double>{1, 2, 3}, 1, 5);
    } else {
      (void)comm.recv<std::vector<double>>(0, 5);
    }
  }, opts);
  const auto events = trace.events("message");
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].task, 0);                      // source
  EXPECT_EQ(events[0].key, 1);                       // destination
  EXPECT_EQ(events[0].aux, 3 * static_cast<std::int64_t>(sizeof(double)));
}

TEST(MsgCount, TracingOffByDefault) {
  // No trace pointer, no crash, normal behavior.
  run(2, [](Communicator& comm) {
    (void)comm.allreduce(1, op_sum<int>());
  });
  SUCCEED();
}

}  // namespace
}  // namespace pml::mp
