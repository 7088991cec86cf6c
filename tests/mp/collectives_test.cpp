/// \file collectives_test.cpp
/// \brief Parameterized integration tests for every collective, across
/// process counts.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <numeric>
#include <string>
#include <string_view>
#include <vector>

#include "mp/mp.hpp"
#include "obs/obs.hpp"

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

// Profiling: kCollective spans cover every collective call exactly once.
// Each call holds at least one span, and no two spans of a rank overlap,
// so --profile's collective time neither misses a call nor counts one
// twice. Each call runs inside a kRegion span labelled "call:<name>".

TEST(CollectiveSpans, EveryCallIsCoveredOnceWithoutNesting) {
  static constexpr int kNp = 4;
  Op<long> ordered = op_sum<long>();
  ordered.commutative = false;  // the tree fallbacks
  const std::size_t ring_elems = Communicator::kRingAllreduceBytes / sizeof(long);
  obs::Scope scope;
  run(kNp, [&](Communicator& comm) {
    const long r = comm.rank();
    const auto call = [](const char* label, const auto& body) {
      obs::SpanScope window{obs::SpanKind::kRegion, label};
      body();
    };
    const std::vector<std::vector<long>> per_dest(kNp, std::vector<long>{r});
    call("call:barrier", [&] { comm.barrier(); });
    call("call:barrier_for", [&] { (void)comm.barrier_for(std::chrono::seconds(30)); });
    call("call:broadcast", [&] { (void)comm.broadcast(r, 0); });
    call("call:flat_broadcast", [&] { (void)comm.flat_broadcast(r, 0); });
    call("call:reduce", [&] { (void)comm.reduce(r, op_sum<long>(), 0); });
    call("call:reduce(vector)",
         [&] { (void)comm.reduce(std::vector<long>(8, r), op_sum<long>(), 0); });
    call("call:flat_reduce", [&] { (void)comm.flat_reduce(r, op_sum<long>(), 0); });
    call("call:flat_reduce(vector)",
         [&] { (void)comm.flat_reduce(std::vector<long>(8, r), op_sum<long>(), 0); });
    call("call:reduce_with_timeout", [&] {
      (void)comm.reduce_with_timeout(r, op_sum<long>(), 0, std::chrono::seconds(30));
    });
    call("call:allreduce", [&] { (void)comm.allreduce(r, op_sum<long>()); });
    call("call:allreduce(tree)",
         [&] { (void)comm.allreduce(std::vector<long>(8, r), op_sum<long>()); });
    call("call:allreduce(ring)",
         [&] { (void)comm.allreduce(std::vector<long>(ring_elems, r), op_sum<long>()); });
    call("call:ring_allreduce",
         [&] { (void)comm.ring_allreduce(std::vector<long>(8, r), op_sum<long>()); });
    call("call:ring_allreduce(non-commutative)",
         [&] { (void)comm.ring_allreduce(std::vector<long>(8, r), ordered); });
    call("call:reduce_scatter",
         [&] { (void)comm.reduce_scatter(std::vector<long>(8, r), op_sum<long>()); });
    call("call:reduce_scatter(non-commutative)",
         [&] { (void)comm.reduce_scatter(std::vector<long>(8, r), ordered); });
    call("call:ring_allgather",
         [&] { (void)comm.ring_allgather(std::vector<long>(2, r)); });
    call("call:scan", [&] { (void)comm.scan(r, op_sum<long>()); });
    call("call:exscan", [&] { (void)comm.exscan(r, op_sum<long>()); });
    call("call:scatter", [&] { (void)comm.scatter(std::vector<long>(8, r), 2, 0); });
    call("call:gather", [&] { (void)comm.gather(std::vector<long>(2, r), 0); });
    call("call:gatherv", [&] {
      (void)comm.gatherv(std::vector<long>(static_cast<std::size_t>(r) + 1, r), 0);
    });
    call("call:allgather", [&] { (void)comm.allgather(std::vector<long>(2, r)); });
    call("call:allgather(scalar)", [&] { (void)comm.allgather(r); });
    call("call:allgatherv", [&] {
      (void)comm.allgatherv(std::vector<long>(static_cast<std::size_t>(r) + 1, r));
    });
    call("call:alltoall(kept)", [&] { (void)comm.alltoall(per_dest); });
    call("call:alltoall(given)", [&] { (void)comm.alltoall(std::vector<Payload>(kNp)); });
    call("call:split", [&] { (void)comm.split(static_cast<int>(r % 2), 0); });
    call("call:dup", [&] { (void)comm.dup(); });
  });
  const obs::Profile p = scope.finish();
  for (int rank = 0; rank < kNp; ++rank) {
    SCOPED_TRACE("rank " + std::to_string(rank));
    std::vector<obs::Span> calls;
    std::vector<obs::Span> spans;
    for (const obs::Span& s : p.spans) {
      if (s.task != rank) continue;
      if (s.kind == obs::SpanKind::kCollective) spans.push_back(s);
      if (s.kind == obs::SpanKind::kRegion && s.label != nullptr &&
          std::string_view(s.label).starts_with("call:")) {
        calls.push_back(s);
      }
    }
    const auto by_begin = [](const obs::Span& a, const obs::Span& b) {
      return a.begin_ns < b.begin_ns;
    };
    std::sort(spans.begin(), spans.end(), by_begin);
    ASSERT_EQ(calls.size(), 29u);
    for (std::size_t i = 1; i < spans.size(); ++i) {
      EXPECT_LE(spans[i - 1].end_ns, spans[i].begin_ns)
          << spans[i].label << " begins inside " << spans[i - 1].label;
    }
    for (const obs::Span& c : calls) {
      const auto inside =
          std::count_if(spans.begin(), spans.end(), [&](const obs::Span& s) {
            return s.begin_ns >= c.begin_ns && s.end_ns <= c.end_ns;
          });
      EXPECT_GE(inside, 1) << c.label << " opened no collective span";
    }
  }
}

}  // namespace
}  // namespace pml::mp
