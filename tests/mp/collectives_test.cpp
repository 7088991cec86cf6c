/// \file collectives_test.cpp
/// \brief Parameterized integration tests for every collective, across
/// process counts.

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

#include "mp/mp.hpp"

namespace pml::mp {
namespace {

class CollectiveSweep : public ::testing::TestWithParam<int> {};

TEST_P(CollectiveSweep, BarrierSeparatesPhases) {
  const int np = GetParam();
  std::atomic<int> arrived{0};
  std::atomic<bool> violated{false};
  run(np, [&](Communicator& comm) {
    for (int phase = 0; phase < 5; ++phase) {
      arrived.fetch_add(1);
      comm.barrier();
      if (arrived.load() < (phase + 1) * np) violated = true;
      comm.barrier();
    }
  });
  EXPECT_FALSE(violated.load());
}

TEST_P(CollectiveSweep, BroadcastDeliversRootValueEverywhere) {
  const int np = GetParam();
  for (int root = 0; root < np; ++root) {
    std::atomic<int> correct{0};
    run(np, [&](Communicator& comm) {
      const int mine = comm.rank() == root ? 4242 : -1;
      if (comm.broadcast(mine, root) == 4242) ++correct;
    });
    EXPECT_EQ(correct.load(), np) << "root " << root;
  }
}

TEST_P(CollectiveSweep, BroadcastVector) {
  const int np = GetParam();
  std::atomic<int> correct{0};
  run(np, [&](Communicator& comm) {
    std::vector<int> data;
    if (comm.rank() == 0) data = {5, 6, 7};
    if (comm.broadcast(data, 0) == std::vector<int>{5, 6, 7}) ++correct;
  });
  EXPECT_EQ(correct.load(), np);
}

TEST_P(CollectiveSweep, ReduceSumAtEveryRoot) {
  const int np = GetParam();
  const int expected = np * (np + 1) / 2;
  for (int root = 0; root < np; ++root) {
    std::atomic<int> at_root{-1};
    run(np, [&](Communicator& comm) {
      const int got = comm.reduce(comm.rank() + 1, op_sum<int>(), root);
      if (comm.rank() == root) at_root = got;
    });
    EXPECT_EQ(at_root.load(), expected) << "root " << root;
  }
}

TEST_P(CollectiveSweep, ReducePaperExampleSumAndMaxOfSquares) {
  // Fig. 24 with np processes: sum/max of (rank+1)^2.
  const int np = GetParam();
  int expected_sum = 0;
  for (int r = 1; r <= np; ++r) expected_sum += r * r;
  std::atomic<int> sum{-1};
  std::atomic<int> max{-1};
  run(np, [&](Communicator& comm) {
    const int square = (comm.rank() + 1) * (comm.rank() + 1);
    const int s = comm.reduce(square, op_sum<int>(), 0);
    const int m = comm.reduce(square, op_max<int>(), 0);
    if (comm.rank() == 0) {
      sum = s;
      max = m;
    }
  });
  EXPECT_EQ(sum.load(), expected_sum);
  EXPECT_EQ(max.load(), np * np);
}

TEST_P(CollectiveSweep, AllreduceGivesEveryoneTheResult) {
  const int np = GetParam();
  std::atomic<int> correct{0};
  run(np, [&](Communicator& comm) {
    const long got = comm.allreduce(static_cast<long>(comm.rank()), op_sum<long>());
    if (got == static_cast<long>(np) * (np - 1) / 2) ++correct;
  });
  EXPECT_EQ(correct.load(), np);
}

TEST_P(CollectiveSweep, VectorReduceIsElementwise) {
  const int np = GetParam();
  std::atomic<bool> ok{false};
  run(np, [&](Communicator& comm) {
    const std::vector<long> mine{static_cast<long>(comm.rank()),
                                 static_cast<long>(comm.rank()) * 2};
    const auto total = comm.reduce(mine, op_sum<long>(), 0);
    if (comm.rank() == 0) {
      const long s = static_cast<long>(np) * (np - 1) / 2;
      ok = (total == std::vector<long>{s, 2 * s});
    }
  });
  EXPECT_TRUE(ok.load());
}

TEST_P(CollectiveSweep, ScatterDealsContiguousChunks) {
  const int np = GetParam();
  std::atomic<int> correct{0};
  run(np, [&](Communicator& comm) {
    std::vector<int> all;
    if (comm.rank() == 0) {
      all.resize(static_cast<std::size_t>(np) * 2);
      std::iota(all.begin(), all.end(), 0);
    }
    const auto mine = comm.scatter(all, 2, 0);
    if (mine == std::vector<int>{comm.rank() * 2, comm.rank() * 2 + 1}) ++correct;
  });
  EXPECT_EQ(correct.load(), np);
}

TEST_P(CollectiveSweep, GatherConcatenatesInRankOrder) {
  // The Fig. 26-28 property: gathered values appear in rank-major order.
  const int np = GetParam();
  std::atomic<bool> ok{false};
  run(np, [&](Communicator& comm) {
    std::vector<int> compute(3);
    for (int i = 0; i < 3; ++i) {
      compute[static_cast<std::size_t>(i)] = comm.rank() * 10 + i;
    }
    const auto gathered = comm.gather(compute, 0);
    if (comm.rank() == 0) {
      std::vector<int> expected;
      for (int r = 0; r < np; ++r) {
        for (int i = 0; i < 3; ++i) expected.push_back(r * 10 + i);
      }
      ok = (gathered == expected);
    } else {
      EXPECT_TRUE(gathered.empty());
    }
  });
  EXPECT_TRUE(ok.load());
}

TEST_P(CollectiveSweep, GathervHandlesUnequalContributions) {
  const int np = GetParam();
  std::atomic<bool> ok{false};
  run(np, [&](Communicator& comm) {
    // Rank r contributes r copies of r (rank 0 contributes none).
    const std::vector<int> mine(static_cast<std::size_t>(comm.rank()), comm.rank());
    const auto gathered = comm.gather(mine, 0);
    if (comm.rank() == 0) {
      std::vector<int> expected;
      for (int r = 0; r < np; ++r) {
        expected.insert(expected.end(), static_cast<std::size_t>(r), r);
      }
      ok = (gathered == expected);
    }
  });
  EXPECT_TRUE(ok.load());
}

TEST_P(CollectiveSweep, ScatterGatherRoundTripIsIdentity) {
  const int np = GetParam();
  std::atomic<bool> ok{false};
  run(np, [&](Communicator& comm) {
    std::vector<int> all;
    if (comm.rank() == 0) {
      all.resize(static_cast<std::size_t>(np) * 3);
      std::iota(all.begin(), all.end(), 100);
    }
    const auto mine = comm.scatter(all, 3, 0);
    const auto back = comm.gather(mine, 0);
    if (comm.rank() == 0) ok = (back == all);
  });
  EXPECT_TRUE(ok.load());
}

TEST_P(CollectiveSweep, AllgatherGivesEveryoneEverything) {
  const int np = GetParam();
  std::atomic<int> correct{0};
  run(np, [&](Communicator& comm) {
    const auto all = comm.allgather(comm.rank() * 5);
    std::vector<int> expected;
    for (int r = 0; r < np; ++r) expected.push_back(r * 5);
    if (all == expected) ++correct;
  });
  EXPECT_EQ(correct.load(), np);
}

TEST_P(CollectiveSweep, ScanComputesInclusivePrefix) {
  const int np = GetParam();
  std::atomic<int> correct{0};
  run(np, [&](Communicator& comm) {
    const int got = comm.scan(comm.rank() + 1, op_sum<int>());
    const int expected = (comm.rank() + 1) * (comm.rank() + 2) / 2;
    if (got == expected) ++correct;
  });
  EXPECT_EQ(correct.load(), np);
}

TEST_P(CollectiveSweep, ExscanComputesExclusivePrefix) {
  const int np = GetParam();
  std::atomic<int> correct{0};
  run(np, [&](Communicator& comm) {
    const int got = comm.exscan(comm.rank() + 1, op_sum<int>());
    const int expected = comm.rank() * (comm.rank() + 1) / 2;  // sum of 1..rank
    if (got == expected) ++correct;
  });
  EXPECT_EQ(correct.load(), np);
}

TEST_P(CollectiveSweep, AlltoallTransposesTheExchangeMatrix) {
  const int np = GetParam();
  std::atomic<int> correct{0};
  run(np, [&](Communicator& comm) {
    std::vector<std::vector<int>> out(static_cast<std::size_t>(np));
    for (int d = 0; d < np; ++d) {
      out[static_cast<std::size_t>(d)] = {comm.rank() * 100 + d};
    }
    const auto in = comm.alltoall(out);
    bool all_ok = true;
    for (int s = 0; s < np; ++s) {
      if (in[static_cast<std::size_t>(s)] != std::vector<int>{s * 100 + comm.rank()}) {
        all_ok = false;
      }
    }
    if (all_ok) ++correct;
  });
  EXPECT_EQ(correct.load(), np);
}

TEST_P(CollectiveSweep, BackToBackCollectivesDoNotCrossTalk) {
  const int np = GetParam();
  std::atomic<int> correct{0};
  run(np, [&](Communicator& comm) {
    const int b1 = comm.broadcast(comm.rank() == 0 ? 1 : 0, 0);
    const int s1 = comm.allreduce(1, op_sum<int>());
    comm.barrier();
    const int b2 = comm.broadcast(comm.rank() == 0 ? 2 : 0, 0);
    const int s2 = comm.allreduce(2, op_sum<int>());
    if (b1 == 1 && b2 == 2 && s1 == np && s2 == 2 * np) ++correct;
  });
  EXPECT_EQ(correct.load(), np);
}

INSTANTIATE_TEST_SUITE_P(ProcessCounts, CollectiveSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 8));

TEST(CollectiveOps, MinlocMaxlocFindValueAndOwner) {
  run(5, [](Communicator& comm) {
    // Value pattern: 10, 7, 4, 7, 10 for ranks 0..4 (ties on both ends).
    const int values[] = {10, 7, 4, 7, 10};
    const ValueLoc<int> mine{values[comm.rank()], comm.rank()};
    const auto lo = comm.allreduce(mine, op_minloc<int>());
    const auto hi = comm.allreduce(mine, op_maxloc<int>());
    EXPECT_EQ(lo.value, 4);
    EXPECT_EQ(lo.loc, 2);
    EXPECT_EQ(hi.value, 10);
    EXPECT_EQ(hi.loc, 0);  // tie broken toward the lower rank
  });
}

TEST(CollectiveOps, UserDefinedAssociativeOp) {
  // String-free GCD reduce: associative and commutative, user-provided.
  run(4, [](Communicator& comm) {
    const long vals[] = {12, 18, 24, 30};
    Op<long> gcd_op{"gcd", 0, [](const long& a, const long& b) {
                      long x = a;
                      long y = b;
                      while (y != 0) {
                        const long t = x % y;
                        x = y;
                        y = t;
                      }
                      return x < 0 ? -x : x;
                    }};
    const long g = comm.allreduce(vals[comm.rank()], gcd_op);
    EXPECT_EQ(g, 6);
  });
}

}  // namespace
}  // namespace pml::mp
