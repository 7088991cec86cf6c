/// \file coll_equivalence_test.cpp
/// \brief Property tests for the bandwidth-optimal collective tier: the
/// tree, the ring and the automatic allreduce compute the same answer, the
/// allreduce rule picks the ring exactly where it says, non-commutative ops
/// fall back safely, ragged contributions fail loudly instead of hanging,
/// and the ring's and the tree's copy counts are exact — all swept under
/// scheduler chaos and fault injection.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <numeric>
#include <vector>

#include "core/error.hpp"
#include "core/trace.hpp"
#include "fault/fault.hpp"
#include "mp/mp.hpp"
#include "obs/obs.hpp"
#include "sched/sched.hpp"

namespace pml::mp {
namespace {

using namespace std::chrono_literals;

/// Sums a counter across every task in the profile (ranks run as tasks).
std::uint64_t total(const obs::Profile& p, obs::Counter c) {
  std::uint64_t sum = 0;
  for (const auto& [task, metrics] : p.tasks) sum += metrics.value(c);
  return sum;
}

/// Rank r contributes [r*1000, r*1000 + n) so every element of the
/// reduced vector depends on every rank and on its position.
std::vector<std::int64_t> contribution(int rank, std::size_t n) {
  std::vector<std::int64_t> v(n);
  std::iota(v.begin(), v.end(), static_cast<std::int64_t>(rank) * 1000);
  return v;
}

/// The elementwise sum all allreduce algorithms must agree on.
std::vector<std::int64_t> expected_sum(int np, std::size_t n) {
  std::vector<std::int64_t> want(n, 0);
  for (int r = 0; r < np; ++r) {
    for (std::size_t i = 0; i < n; ++i) {
      want[i] += static_cast<std::int64_t>(r) * 1000 + static_cast<std::int64_t>(i);
    }
  }
  return want;
}

/// The three ways to allreduce a vector: the tree and the ring by name,
/// and the automatic rule.
enum class Path { kTree, kRing, kAuto };

const char* name(Path path) {
  switch (path) {
    case Path::kTree: return "tree";
    case Path::kRing: return "ring";
    case Path::kAuto: return "auto";
  }
  return "?";
}

/// Runs a vector allreduce along \p path and returns every rank's result.
std::vector<std::vector<std::int64_t>> allreduce_with(int np, std::size_t n, Path path,
                                                      const RunOptions& opts = {}) {
  std::vector<std::vector<std::int64_t>> got(static_cast<std::size_t>(np));
  run(
      np,
      [&](Communicator& comm) {
        const auto op = op_sum<std::int64_t>();
        std::vector<std::int64_t> mine = contribution(comm.rank(), n);
        std::vector<std::int64_t>& out = got[static_cast<std::size_t>(comm.rank())];
        switch (path) {
          case Path::kTree:
            out = comm.broadcast(comm.reduce(std::move(mine), op, 0), 0);
            break;
          case Path::kRing:
            out = comm.ring_allreduce(std::move(mine), op);
            break;
          case Path::kAuto:
            out = comm.allreduce(std::move(mine), op);
            break;
        }
      },
      opts);
  return got;
}

// Test names kept from before the butterfly and the segmented tree were
// removed: the sweep compares the tree, the ring and the automatic
// allreduce.
class CollEquivalenceSweep : public ::testing::TestWithParam<int> {};

TEST_P(CollEquivalenceSweep, RingButterflyTreeAndSegmentedAgree) {
  const int np = GetParam();
  // Sizes straddle everything interesting: empty blocks (n < p), ragged
  // blocks (n % p != 0), multi-element blocks, and a body exactly at the
  // ring bar, where the automatic allreduce switches to the ring.
  const std::size_t at_bar = Communicator::kRingAllreduceBytes / sizeof(std::int64_t);
  for (const std::size_t n : {std::size_t{1}, std::size_t{5}, std::size_t{64},
                              std::size_t{130}, at_bar}) {
    const std::vector<std::int64_t> want = expected_sum(np, n);
    for (const Path path : {Path::kTree, Path::kRing, Path::kAuto}) {
      const auto got = allreduce_with(np, n, path);
      for (int r = 0; r < np; ++r) {
        EXPECT_EQ(got[static_cast<std::size_t>(r)], want)
            << "path=" << name(path) << " np=" << np << " n=" << n << " rank=" << r;
      }
    }
    // A tiny eager threshold sends every tree hop above it: the reduce and
    // the broadcast ship their copies by ownership transfer.
    RunOptions rendezvous;
    rendezvous.eager_bytes = 16;
    const auto got = allreduce_with(np, n, Path::kTree, rendezvous);
    for (int r = 0; r < np; ++r) {
      EXPECT_EQ(got[static_cast<std::size_t>(r)], want)
          << "rendezvous tree np=" << np << " n=" << n << " rank=" << r;
    }
  }
}

TEST_P(CollEquivalenceSweep, AgreementHoldsUnderChaosSchedules) {
  const int np = GetParam();
  const std::size_t n = 37;  // ragged on every swept p
  const std::vector<std::int64_t> want = expected_sum(np, n);
  for (const unsigned seed : {1u, 7u, 42u}) {
    sched::ChaosScope chaos{seed};
    for (const Path path : {Path::kTree, Path::kRing, Path::kAuto}) {
      const auto got = allreduce_with(np, n, path);
      for (int r = 0; r < np; ++r) {
        EXPECT_EQ(got[static_cast<std::size_t>(r)], want)
            << "seed=" << seed << " path=" << name(path) << " np=" << np
            << " rank=" << r;
      }
    }
    RunOptions rendezvous;
    rendezvous.eager_bytes = 16;
    const auto got = allreduce_with(np, n, Path::kTree, rendezvous);
    for (int r = 0; r < np; ++r) {
      EXPECT_EQ(got[static_cast<std::size_t>(r)], want)
          << "rendezvous tree seed=" << seed << " np=" << np << " rank=" << r;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ProcessCounts, CollEquivalenceSweep,
                         ::testing::Values(2, 3, 4, 5, 8));

// ---------------------------------------------------------------------------
// Non-commutative ops: the ring reorders operands, so it must refuse and
// fall back to the (rank-ordered) tree.

/// 2x2 integer matrices under multiplication: associative, NOT commutative.
struct M2 {
  std::int64_t a = 1, b = 0, c = 0, d = 1;  // identity
  bool operator==(const M2& o) const {
    return a == o.a && b == o.b && c == o.c && d == o.d;
  }
};

Op<M2> matmul() {
  return {"matmul", M2{}, [](const M2& x, const M2& y) {
            return M2{x.a * y.a + x.b * y.c, x.a * y.b + x.b * y.d,
                      x.c * y.a + x.d * y.c, x.c * y.b + x.d * y.d};
          }};  // commutative defaults to false
}

M2 rank_matrix(int r) {
  return M2{r + 1, r + 2, r + 3, r + 4};
}

/// Left-fold in rank order — the answer every algorithm must reproduce.
M2 sequential_product(int np) {
  Op<M2> op = matmul();
  M2 acc = op.identity;
  for (int r = 0; r < np; ++r) acc = op.combine(acc, rank_matrix(r));
  return acc;
}

TEST(CollNonCommutative, ForcedRingFallsBackToRankOrderedTree) {
  for (const int np : {3, 5, 7}) {
    const M2 want = sequential_product(np);
    std::vector<std::vector<M2>> got(static_cast<std::size_t>(np));
    run(np, [&](Communicator& comm) {
      got[static_cast<std::size_t>(comm.rank())] = comm.ring_allreduce(
          std::vector<M2>{rank_matrix(comm.rank())}, matmul());
    });
    for (int r = 0; r < np; ++r) {
      ASSERT_EQ(got[static_cast<std::size_t>(r)].size(), 1u);
      EXPECT_TRUE(got[static_cast<std::size_t>(r)][0] == want)
          << "np=" << np << " rank=" << r;
    }
  }
}

TEST(CollNonCommutative, ReduceScatterRoutesNonCommutativeViaTree) {
  const int np = 4;
  const M2 want = sequential_product(np);
  std::vector<std::vector<M2>> got(static_cast<std::size_t>(np));
  run(np, [&](Communicator& comm) {
    // One element per rank: rank r's scattered block is element r.
    std::vector<M2> local(static_cast<std::size_t>(np), rank_matrix(comm.rank()));
    got[static_cast<std::size_t>(comm.rank())] =
        comm.reduce_scatter(std::move(local), matmul());
  });
  for (int r = 0; r < np; ++r) {
    ASSERT_EQ(got[static_cast<std::size_t>(r)].size(), 1u);
    EXPECT_TRUE(got[static_cast<std::size_t>(r)][0] == want) << "rank=" << r;
  }
}

// ---------------------------------------------------------------------------
// Ragged contributions: different lengths across ranks are a usage bug and
// must surface as UsageError on every new primitive — never a hang, never a
// silently wrong answer. The tree reduce's mismatch is staged across the
// eager threshold too, where one hop ships eagerly and its peer's ships a
// copy by ownership transfer. (The SegmentedReduce* names predate the
// removal of the segmented tree; the tests keep its 64-byte boundary as
// the eager threshold.)

RunOptions eager_at_64_bytes() {
  RunOptions opts;
  opts.eager_bytes = 64;
  return opts;
}

TEST(CollRagged, RingAllreduceThrowsUsageError) {
  EXPECT_THROW(run(4,
                   [](Communicator& comm) {
                     const std::size_t n = comm.rank() == 2 ? 44u : 40u;
                     (void)comm.ring_allreduce(contribution(comm.rank(), n),
                                               op_sum<std::int64_t>());
                   }),
               UsageError);
}

TEST(CollRagged, ReduceScatterThrowsUsageError) {
  EXPECT_THROW(run(4,
                   [](Communicator& comm) {
                     const std::size_t n = comm.rank() == 1 ? 44u : 40u;
                     (void)comm.reduce_scatter(contribution(comm.rank(), n),
                                               op_sum<std::int64_t>());
                   }),
               UsageError);
}

TEST(CollRagged, SegmentedReduceThrowsAcrossTheSegmentationThreshold) {
  // eager = 64 bytes = 8 int64s: rank 1's 4-element body ships eagerly
  // while everyone else's ships by ownership transfer — the receiver must
  // diagnose the mismatch whichever way the body arrived.
  EXPECT_THROW(run(4,
                   [](Communicator& comm) {
                     const std::size_t n = comm.rank() == 1 ? 4u : 40u;
                     (void)comm.reduce(contribution(comm.rank(), n),
                                       op_sum<std::int64_t>(), 0);
                   },
                   eager_at_64_bytes()),
               UsageError);
}

TEST(CollRagged, SegmentedReduceThrowsOnSegmentedLengthMismatch) {
  // Both sides ship above the threshold, totals differ: rank 3's body
  // reaches interior rank 2 with the wrong length.
  EXPECT_THROW(run(4,
                   [](Communicator& comm) {
                     const std::size_t n = comm.rank() == 3 ? 48u : 40u;
                     (void)comm.reduce(contribution(comm.rank(), n),
                                       op_sum<std::int64_t>(), 0);
                   },
                   eager_at_64_bytes()),
               UsageError);
}

// ---------------------------------------------------------------------------
// Exact copy accounting: at 16 MiB x 4 ranks every block (4 MiB) rides the
// zero-copy rendezvous path, so the only payload copies left are the ring's
// own data movement: rank r copies out its first slice (block r-1), writes
// its reduced home block, and writes the p-1 foreign blocks the allgather
// delivers — (p+1) * N bytes total across ranks, exactly.

TEST(CollCopyAccounting, SixteenMiBRingAllreduceCopiesExactlyPPlus1N) {
  static constexpr int kNp = 4;
  static constexpr std::size_t kElems = (16u << 20) / sizeof(std::int64_t);  // 16 MiB
  obs::Scope scope;
  run(kNp, [](Communicator& comm) {
    std::vector<std::int64_t> v(kElems, static_cast<std::int64_t>(comm.rank()));
    const auto out = comm.ring_allreduce(std::move(v), op_sum<std::int64_t>());
    // Spot-check: every element is 0+1+2+3.
    ASSERT_EQ(out.size(), kElems);
    EXPECT_EQ(out.front(), 6);
    EXPECT_EQ(out.back(), 6);
  });
  const obs::Profile p = scope.finish();
  const std::uint64_t n_bytes = kElems * sizeof(std::int64_t);
  EXPECT_EQ(total(p, obs::Counter::kPayloadBytesCopied), (kNp + 1) * n_bytes);
  // Ring structure: p-1 reduce-scatter + p-1 allgather sends per rank.
  EXPECT_EQ(total(p, obs::Counter::kCollSegments),
            static_cast<std::uint64_t>(2 * kNp * (kNp - 1)));
}

// Tree hops above the eager threshold: each of the p-1 hops ships one copy
// of the sender's value (a reduce's subtree partial, a broadcast's body) by
// ownership transfer and the receiver claims it without a decode, so a
// vector reduce or broadcast copies (p-1) * N bytes across ranks, exactly.

TEST(CollCopyAccounting, TreeReduceCopiesExactlyPMinus1N) {
  static constexpr int kNp = 4;
  for (const std::size_t n_bytes : {std::size_t{64} << 10, std::size_t{16} << 20}) {
    const std::size_t elems = n_bytes / sizeof(std::int64_t);
    obs::Scope scope;
    run(kNp, [elems](Communicator& comm) {
      std::vector<std::int64_t> v(elems, static_cast<std::int64_t>(comm.rank()));
      const auto out = comm.reduce(std::move(v), op_sum<std::int64_t>(), 0);
      ASSERT_EQ(out.size(), elems);
      if (comm.rank() == 0) {
        EXPECT_EQ(out.front(), 6);
        EXPECT_EQ(out.back(), 6);
      }
    });
    const obs::Profile p = scope.finish();
    EXPECT_EQ(total(p, obs::Counter::kPayloadBytesCopied), (kNp - 1) * n_bytes)
        << "N=" << n_bytes;
  }
}

TEST(CollCopyAccounting, TreeBroadcastCopiesExactlyPMinus1N) {
  static constexpr int kNp = 4;
  for (const std::size_t n_bytes : {std::size_t{64} << 10, std::size_t{16} << 20}) {
    const std::size_t elems = n_bytes / sizeof(std::int64_t);
    obs::Scope scope;
    run(kNp, [elems](Communicator& comm) {
      std::vector<std::int64_t> v;
      if (comm.rank() == 0) v.assign(elems, 7);
      const auto out = comm.broadcast(std::move(v), 0);
      ASSERT_EQ(out.size(), elems);
      EXPECT_EQ(out.front(), 7);
      EXPECT_EQ(out.back(), 7);
    });
    const obs::Profile p = scope.finish();
    EXPECT_EQ(total(p, obs::Counter::kPayloadBytesCopied), (kNp - 1) * n_bytes)
        << "N=" << n_bytes;
  }
}

// ---------------------------------------------------------------------------
// The allreduce rule, pinned by message counts at p = 4: the ring sends
// 2p(p-1) block messages, the tree (reduce + broadcast) 2(p-1) bodies.

std::size_t allreduce_messages(const std::function<void(Communicator&)>& body) {
  pml::Trace trace;
  RunOptions opts;
  opts.message_trace = &trace;
  run(4, body, opts);
  return trace.events("message").size();
}

TEST(CollAllreduceRule, CommutativeVectorAtTheBarTakesTheRing) {
  const std::size_t n = Communicator::kRingAllreduceBytes / sizeof(std::int64_t);
  ASSERT_EQ(n * sizeof(std::int64_t), std::size_t{256} << 10);
  const auto messages = allreduce_messages([n](Communicator& comm) {
    const auto out = comm.allreduce(contribution(comm.rank(), n), op_sum<std::int64_t>());
    EXPECT_EQ(out, expected_sum(4, n));
  });
  EXPECT_EQ(messages, 2u * 4u * 3u);
}

TEST(CollAllreduceRule, EightBytesBelowTheBarTakesTheTree) {
  const std::size_t n = Communicator::kRingAllreduceBytes / sizeof(std::int64_t) - 1;
  const auto messages = allreduce_messages([n](Communicator& comm) {
    const auto out = comm.allreduce(contribution(comm.rank(), n), op_sum<std::int64_t>());
    EXPECT_EQ(out, expected_sum(4, n));
  });
  EXPECT_EQ(messages, 2u * 3u);
}

TEST(CollAllreduceRule, NonCommutativeOpTakesTheTreeAtOneMiB) {
  const std::size_t n = (std::size_t{1} << 20) / sizeof(M2);
  const M2 want = sequential_product(4);
  const auto messages = allreduce_messages([n, want](Communicator& comm) {
    const auto out =
        comm.allreduce(std::vector<M2>(n, rank_matrix(comm.rank())), matmul());
    ASSERT_EQ(out.size(), n);
    EXPECT_TRUE(out.front() == want);
    EXPECT_TRUE(out.back() == want);
  });
  EXPECT_EQ(messages, 2u * 3u);
}

// ---------------------------------------------------------------------------
// Fault interplay: a tree broadcast where every message rides the
// rendezvous path, and ring/tree collectives under drop and crash faults
// with a collective timeout — degrade loudly, never hang. (The Segmented*
// names predate the removal of the segmented tree; the tests keep their
// fault setups on the whole-body tree.)

TEST(CollFaults, SegmentedBroadcastSurvivesTinyEagerThresholdUnderChaos) {
  for (const unsigned seed : {1u, 7u, 42u}) {
    sched::ChaosScope chaos{seed};
    RunOptions opts;
    opts.eager_bytes = 1;  // every hop becomes an RTS
    std::vector<std::vector<std::int64_t>> got(4);
    run(
        4,
        [&](Communicator& comm) {
          std::vector<std::int64_t> v;
          if (comm.rank() == 0) v = contribution(0, 100);
          got[static_cast<std::size_t>(comm.rank())] = comm.broadcast(v, 0);
        },
        opts);
    for (int r = 0; r < 4; ++r) {
      EXPECT_EQ(got[static_cast<std::size_t>(r)], contribution(0, 100))
          << "seed=" << seed << " rank=" << r;
    }
  }
}

TEST(CollFaults, RingAllreduceWithDropTimesOutInsteadOfHanging) {
  fault::FaultScope faults{fault::FaultPlan::parse("drop:1")};
  RunOptions opts;
  opts.collective_timeout = 200ms;
  EXPECT_THROW(run(4,
                   [](Communicator& comm) {
                     (void)comm.ring_allreduce(contribution(comm.rank(), 64),
                                               op_sum<std::int64_t>());
                   },
                   opts),
               RuntimeFault);
}

TEST(CollFaults, SegmentedReduceWithNodeCrashDegradesLoudly) {
  fault::FaultScope faults{fault::FaultPlan::parse("crash:node-02@0")};
  RunOptions opts;
  opts.cluster = Cluster(2, 4, Placement::kRoundRobin);  // node-02: odd ranks
  opts.collective_timeout = 200ms;
  EXPECT_THROW(run(4,
                   [](Communicator& comm) {
                     (void)comm.reduce(contribution(comm.rank(), 64),
                                       op_sum<std::int64_t>(), 0);
                   },
                   opts),
               fault::NodeCrashFault);
}

// ---------------------------------------------------------------------------
// Primitive semantics: reduce_scatter hands rank r the r-th reduced block;
// ring_allgather concatenates per-rank vectors in rank order (allgatherv —
// blocks may differ in length).

TEST(CollPrimitives, ReduceScatterDealsReducedBlocksInRankOrder) {
  const int np = 4;
  const std::size_t n = 10;  // ragged: blocks of 3,3,2,2
  std::vector<std::vector<std::int64_t>> got(static_cast<std::size_t>(np));
  run(np, [&](Communicator& comm) {
    got[static_cast<std::size_t>(comm.rank())] =
        comm.reduce_scatter(contribution(comm.rank(), n), op_sum<std::int64_t>());
  });
  const std::vector<std::int64_t> want = expected_sum(np, n);
  std::size_t off = 0;
  for (int r = 0; r < np; ++r) {
    const auto& block = got[static_cast<std::size_t>(r)];
    ASSERT_EQ(block.size(), n / np + (static_cast<std::size_t>(r) < n % np ? 1 : 0));
    for (std::size_t i = 0; i < block.size(); ++i) {
      EXPECT_EQ(block[i], want[off + i]) << "rank=" << r << " i=" << i;
    }
    off += block.size();
  }
}

TEST(CollPrimitives, RingAllgatherConcatenatesRaggedBlocks) {
  const int np = 4;
  std::vector<std::vector<std::int64_t>> got(static_cast<std::size_t>(np));
  run(np, [&](Communicator& comm) {
    // Rank r contributes r+1 copies of its rank id.
    std::vector<std::int64_t> mine(static_cast<std::size_t>(comm.rank()) + 1,
                                   comm.rank());
    got[static_cast<std::size_t>(comm.rank())] =
        comm.ring_allgather(std::move(mine));
  });
  const std::vector<std::int64_t> want = {0, 1, 1, 2, 2, 2, 3, 3, 3, 3};
  for (int r = 0; r < np; ++r) {
    EXPECT_EQ(got[static_cast<std::size_t>(r)], want) << "rank=" << r;
  }
}

TEST(CollPrimitives, ReduceScatterComposedWithAllgatherEqualsAllreduce) {
  const int np = 4;
  const std::size_t n = 26;
  std::vector<std::vector<std::int64_t>> got(static_cast<std::size_t>(np));
  run(np, [&](Communicator& comm) {
    auto mine =
        comm.reduce_scatter(contribution(comm.rank(), n), op_sum<std::int64_t>());
    got[static_cast<std::size_t>(comm.rank())] =
        comm.ring_allgather(std::move(mine));
  });
  const std::vector<std::int64_t> want = expected_sum(np, n);
  for (int r = 0; r < np; ++r) {
    EXPECT_EQ(got[static_cast<std::size_t>(r)], want) << "rank=" << r;
  }
}

}  // namespace
}  // namespace pml::mp
