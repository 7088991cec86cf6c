/// \file rendezvous_test.cpp
/// \brief Tests for the eager/rendezvous large-message transport.
///
/// The acceptance-critical test here is ZeroCopySixteenMegabytePingPong: a
/// 16 MB round trip whose payload-plane copy counter must read exactly zero.
/// Everything the transport promises — threshold routing, true-size probes,
/// stale-RTS tolerance, retry re-publication, finalize-time reclamation —
/// gets a test, plus collectives and ordering at an artificially tiny
/// threshold so every body rides the rendezvous path.

#include <gtest/gtest.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "analyze/analyze.hpp"
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

std::vector<std::int64_t> iota_vec(std::size_t n, std::int64_t start = 0) {
  std::vector<std::int64_t> v(n);
  std::iota(v.begin(), v.end(), start);
  return v;
}

RunOptions tiny_threshold(std::size_t eager_bytes = 64) {
  RunOptions options;
  options.eager_bytes = eager_bytes;
  return options;
}

// ---------------------------------------------------------------------------
// RendezvousTable unit tests.

TEST(RendezvousTable, ParkClaimRoundTripsOwnership) {
  RendezvousTable table;
  std::vector<std::byte> bytes(128, std::byte{0x5a});

  auto parked = RendezvousTable::Parked::owning(std::move(bytes));
  parked.sender = 0;
  parked.dest = 1;
  parked.tag = 7;

  const std::uint64_t ticket = table.park(std::move(parked));
  EXPECT_NE(ticket, 0u);
  EXPECT_EQ(table.parked(), 1u);

  auto claimed = table.claim(ticket);
  ASSERT_TRUE(claimed.has_value());
  EXPECT_EQ(claimed->bytes, 128u);
  EXPECT_EQ(claimed->tag, 7);
  EXPECT_EQ(claimed->data[0], std::byte{0x5a});
  EXPECT_EQ(table.parked(), 0u);

  // Second claim of the same ticket: the body is gone.
  EXPECT_FALSE(table.claim(ticket).has_value());
}

TEST(RendezvousTable, TicketsAreUniqueAndDrainReturnsLeftovers) {
  RendezvousTable table;
  auto park_one = [&table](int tag) {
    auto p = RendezvousTable::Parked::owning(std::string(100, 'x'));
    p.tag = tag;
    return table.park(std::move(p));
  };
  const std::uint64_t a = park_one(1);
  const std::uint64_t b = park_one(2);
  EXPECT_NE(a, b);
  EXPECT_EQ(table.parked(), 2u);

  auto leftovers = table.drain();
  EXPECT_EQ(leftovers.size(), 2u);
  EXPECT_EQ(table.parked(), 0u);
  EXPECT_FALSE(table.claim(a).has_value());
}

// ---------------------------------------------------------------------------
// Threshold routing.

TEST(Rendezvous, ThresholdRoutesSmallEagerLargeRendezvous) {
  obs::Scope scope;
  run(
      2,
      [](Communicator& comm) {
        // 4 ints = 32 bytes: under the 256-byte threshold, stays eager.
        // 100 ints = 800 bytes: over it, rides the rendezvous path.
        if (comm.rank() == 0) {
          comm.send(iota_vec(4), 1, 1);
          comm.send(iota_vec(100), 1, 2);
        } else {
          EXPECT_EQ(comm.recv<std::vector<std::int64_t>>(0, 1), iota_vec(4));
          EXPECT_EQ(comm.recv<std::vector<std::int64_t>>(0, 2), iota_vec(100));
        }
      },
      tiny_threshold(256));
  const obs::Profile p = scope.finish();
  EXPECT_EQ(total(p, obs::Counter::kRdvParked), 1u);
  EXPECT_EQ(total(p, obs::Counter::kRdvBytes), 800u);
  EXPECT_EQ(total(p, obs::Counter::kRdvStale), 0u);
}

TEST(Rendezvous, ExplicitZeroThresholdRoutesEverything) {
  obs::Scope scope;
  run(
      2,
      [](Communicator& comm) {
        if (comm.rank() == 0) {
          comm.send(std::string("hi"), 1);
        } else {
          EXPECT_EQ(comm.recv<std::string>(0), "hi");
        }
      },
      tiny_threshold(0));
  const obs::Profile p = scope.finish();
  EXPECT_EQ(total(p, obs::Counter::kRdvParked), 1u);
}

// ---------------------------------------------------------------------------
// The acceptance criterion: a 16 MB ping-pong with zero payload-plane
// copies. The sender moves the vector in; the parked buffer changes hands
// pointer-for-pointer at claim time; the typed receive moves it back out.

constexpr std::size_t kPingPongCount = (16u << 20) / sizeof(std::int64_t);
constexpr std::size_t kPingPongBytes = kPingPongCount * sizeof(std::int64_t);

TEST(Rendezvous, ZeroCopySixteenMegabytePingPong) {
  obs::Scope scope;
  run(2, [](Communicator& comm) {
    if (comm.rank() == 0) {
      comm.send(iota_vec(kPingPongCount), 1);
      const auto back = comm.recv<std::vector<std::int64_t>>(1);
      ASSERT_EQ(back.size(), kPingPongCount);
      EXPECT_EQ(back.front(), 0);
      EXPECT_EQ(back[kPingPongCount / 2], static_cast<std::int64_t>(kPingPongCount / 2));
      EXPECT_EQ(back.back(), static_cast<std::int64_t>(kPingPongCount - 1));
    } else {
      auto body = comm.recv<std::vector<std::int64_t>>(0);
      comm.send(std::move(body), 0);
    }
  });
  const obs::Profile p = scope.finish();
  // THE zero-copy assertion: no payload-plane memcpy of a spilled body
  // anywhere in the round trip.
  EXPECT_EQ(total(p, obs::Counter::kPayloadBytesCopied), 0u);
  EXPECT_EQ(total(p, obs::Counter::kRdvParked), 2u);
  EXPECT_EQ(total(p, obs::Counter::kRdvBytes), 2 * kPingPongBytes);
}

constexpr std::size_t kEagerCount = (1u << 20) / sizeof(std::int64_t);
constexpr std::size_t kEagerBytesTotal = kEagerCount * sizeof(std::int64_t);

TEST(Rendezvous, EagerAblationPaysTheCopies) {
  // Forcing pure-eager (threshold = SIZE_MAX) must route the same traffic
  // through the copying path: at least encode + decode per hop.
  obs::Scope scope;
  run(
      2,
      [](Communicator& comm) {
        if (comm.rank() == 0) {
          comm.send(iota_vec(kEagerCount), 1);
        } else {
          EXPECT_EQ(comm.recv<std::vector<std::int64_t>>(0).size(), kEagerCount);
        }
      },
      tiny_threshold(std::numeric_limits<std::size_t>::max()));
  const obs::Profile p = scope.finish();
  EXPECT_EQ(total(p, obs::Counter::kRdvParked), 0u);
  EXPECT_GE(total(p, obs::Counter::kPayloadBytesCopied), 2 * kEagerBytesTotal);
}

// ---------------------------------------------------------------------------
// Typed-claim fast path vs. mismatch fallback.

TEST(Rendezvous, PayloadRoundTripIsZeroCopy) {
  obs::Scope scope;
  run(
      2,
      [](Communicator& comm) {
        if (comm.rank() == 0) {
          Payload big;
          big.resize(4096);
          for (std::size_t i = 0; i < big.size(); ++i) {
            big.data()[i] = static_cast<std::byte>(i & 0xff);
          }
          comm.send(std::move(big), 1);
        } else {
          const auto got = comm.recv<Payload>(0);
          ASSERT_EQ(got.size(), 4096u);
          EXPECT_EQ(got.data()[257], std::byte{1});
        }
      },
      tiny_threshold());
  const obs::Profile p = scope.finish();
  EXPECT_EQ(total(p, obs::Counter::kPayloadBytesCopied), 0u);
  EXPECT_EQ(total(p, obs::Counter::kRdvParked), 1u);
}

TEST(Rendezvous, MismatchedClaimTypeFallsBackToCountedCopy) {
  // Sender parks a vector<int64>, receiver asks for Payload: the transport
  // has to materialize raw bytes, and honesty requires counting that copy.
  obs::Scope scope;
  run(
      2,
      [](Communicator& comm) {
        if (comm.rank() == 0) {
          comm.send(iota_vec(100), 1);
        } else {
          auto raw = comm.recv<Payload>(0);
          ASSERT_EQ(raw.size(), 800u);
          const auto values =
              Codec<std::vector<std::int64_t>>::decode(std::move(raw));
          EXPECT_EQ(values, iota_vec(100));
        }
      },
      tiny_threshold());
  const obs::Profile p = scope.finish();
  EXPECT_EQ(total(p, obs::Counter::kRdvParked), 1u);
  EXPECT_GE(total(p, obs::Counter::kPayloadBytesCopied), 800u);
}

// ---------------------------------------------------------------------------
// Probe / Status see through the RTS envelope.

TEST(Rendezvous, ProbeReportsFullBodySizeNotHandleSize) {
  run(
      2,
      [](Communicator& comm) {
        if (comm.rank() == 0) {
          comm.send(iota_vec(1000), 1, 5);
        } else {
          std::optional<Status> st;
          while (!(st = comm.probe(0, 5))) {
          }
          EXPECT_EQ(st->bytes, 8000u);
          EXPECT_EQ(st->count<std::int64_t>(), 1000u);
          Status recv_status;
          const auto body = comm.recv<std::vector<std::int64_t>>(0, 5, &recv_status);
          EXPECT_EQ(body.size(), 1000u);
          EXPECT_EQ(recv_status.bytes, 8000u);
        }
      },
      tiny_threshold());
}

TEST(Rendezvous, SsendAcksAtClaimTime) {
  run(
      2,
      [](Communicator& comm) {
        if (comm.rank() == 0) {
          comm.ssend(iota_vec(500), 1);
        } else {
          EXPECT_EQ(comm.recv<std::vector<std::int64_t>>(0), iota_vec(500));
        }
      },
      tiny_threshold());
}

// ---------------------------------------------------------------------------
// Fault interplay: duplicated RTS envelopes go stale, dropped ones are
// re-published by send_with_retry, and unclaimed bodies drain at finalize.

TEST(Rendezvous, DuplicateRtsGoesStaleWithoutCorruption) {
  obs::Scope scope;
  {
    fault::FaultScope faults{fault::FaultPlan::parse("dup:1")};
    run(
        2,
        [](Communicator& comm) {
          if (comm.rank() == 0) {
            comm.send(iota_vec(200), 1, 3);
          } else {
            // First receive claims the body; the duplicate RTS is stale and
            // must be skipped, not decoded as a second message.
            EXPECT_EQ(comm.recv<std::vector<std::int64_t>>(0, 3), iota_vec(200));
            EXPECT_FALSE(
                comm.recv_for<std::vector<std::int64_t>>(50ms, 0, 3).has_value());
          }
        },
        tiny_threshold());
    EXPECT_EQ(fault::stats().duplicated, 1u);
  }
  const obs::Profile p = scope.finish();
  EXPECT_EQ(total(p, obs::Counter::kRdvStale), 1u);
  EXPECT_EQ(total(p, obs::Counter::kRdvParked), 1u);
}

TEST(Rendezvous, SendWithRetryRepublishesDroppedRts) {
  fault::FaultScope faults{fault::FaultPlan::parse("drop:1")};
  int attempts = 0;
  run(
      2,
      [&attempts](Communicator& comm) {
        if (comm.rank() == 0) {
          RetryPolicy policy;
          policy.initial_backoff = 10ms;
          attempts = comm.send_with_retry(iota_vec(300), 1, 0, policy);
        } else {
          const auto got = comm.recv_retry<std::vector<std::int64_t>>(2000ms, 0);
          ASSERT_TRUE(got.has_value());
          EXPECT_EQ(*got, iota_vec(300));
        }
      },
      tiny_threshold());
  // The first RTS was dropped; the retry re-published the same parked body.
  EXPECT_EQ(attempts, 2);
  EXPECT_EQ(fault::stats().dropped, 1u);
}

TEST(Rendezvous, DroppedRtsDrainsAtFinalizeAndLints) {
  analyze::Scope analysis;
  {
    fault::FaultScope faults{fault::FaultPlan::parse("drop:1")};
    run(
        2,
        [](Communicator& comm) {
          if (comm.rank() == 0) {
            comm.send(iota_vec(200), 1);  // RTS eaten by fault injection
          } else {
            EXPECT_FALSE(
                comm.recv_for<std::vector<std::int64_t>>(50ms, 0).has_value());
          }
        },
        tiny_threshold());
  }
  const analyze::Report report = analysis.finish();
  bool found = false;
  for (const auto& f : report.findings) {
    if (f.subject != "rendezvous") continue;
    found = true;
    // The drop was injected, so the stall is a note, not an error.
    EXPECT_EQ(f.severity, analyze::Severity::kNote);
    EXPECT_NE(f.message.find("dropped by fault injection"), std::string::npos);
  }
  EXPECT_TRUE(found) << "expected a stalled-rendezvous finding";
}

// ---------------------------------------------------------------------------
// Ordering: eager and rendezvous traffic on one lane must not overtake.

TEST(Rendezvous, MixedSizesPreserveNonOvertaking) {
  run(
      2,
      [](Communicator& comm) {
        constexpr int kMessages = 24;
        if (comm.rank() == 0) {
          for (int i = 0; i < kMessages; ++i) {
            // Alternate 32-byte (eager) and 1600-byte (rendezvous) bodies,
            // each stamped with its sequence number.
            const std::size_t n = (i % 2 == 0) ? 4u : 200u;
            comm.send(iota_vec(n, i), 1, 9);
          }
        } else {
          for (int i = 0; i < kMessages; ++i) {
            const auto got = comm.recv<std::vector<std::int64_t>>(0, 9);
            ASSERT_FALSE(got.empty());
            EXPECT_EQ(got.front(), i) << "message " << i << " overtaken";
            EXPECT_EQ(got.size(), (i % 2 == 0) ? 4u : 200u);
          }
        }
      },
      tiny_threshold(64));
}

// ---------------------------------------------------------------------------
// Collectives at a tiny threshold: every interior hop rides the rendezvous
// path and still has to produce the right answer.

TEST(Rendezvous, CollectivesSurviveTinyThreshold) {
  run(
      4,
      [](Communicator& comm) {
        const int rank = comm.rank();

        const auto casted = comm.broadcast(iota_vec(300), 0);
        EXPECT_EQ(casted, iota_vec(300));

        const auto sum =
            comm.reduce(iota_vec(64, rank), op_sum<std::int64_t>(), 0);
        if (rank == 0) {
          ASSERT_EQ(sum.size(), 64u);
          EXPECT_EQ(sum[0], 0 + 1 + 2 + 3);
          EXPECT_EQ(sum[63], 4 * 63 + 6);
        }

        const auto piece =
            comm.scatter(rank == 0 ? iota_vec(400) : std::vector<std::int64_t>{},
                         100, 0);
        EXPECT_EQ(piece, iota_vec(100, rank * 100));
      },
      tiny_threshold(16));
}

TEST(Rendezvous, GathervConcatenatesRaggedContributions) {
  run(
      4,
      [](Communicator& comm) {
        const int rank = comm.rank();
        // Rank r contributes r+1 hundred elements tagged with its rank.
        std::vector<std::int64_t> mine((rank + 1) * 100, rank);
        std::vector<std::size_t> counts;
        auto all = comm.gatherv(std::move(mine), 0, &counts);
        if (rank == 0) {
          ASSERT_EQ(counts, (std::vector<std::size_t>{100, 200, 300, 400}));
          ASSERT_EQ(all.size(), 1000u);
          std::size_t at = 0;
          for (int r = 0; r < 4; ++r) {
            for (std::size_t i = 0; i < counts[r]; ++i) {
              ASSERT_EQ(all[at++], r) << "rank " << r << " element " << i;
            }
          }
        } else {
          EXPECT_TRUE(all.empty());
        }
      },
      tiny_threshold(32));
}

TEST(Rendezvous, AllgathervGivesEveryRankTheConcatenation) {
  run(
      3,
      [](Communicator& comm) {
        const int rank = comm.rank();
        std::vector<std::int64_t> mine(50 + 10 * rank, rank * 7);
        std::vector<std::size_t> counts;
        const auto all = comm.allgatherv(std::move(mine), &counts);
        ASSERT_EQ(counts, (std::vector<std::size_t>{50, 60, 70}));
        ASSERT_EQ(all.size(), 180u);
        EXPECT_EQ(all[0], 0);
        EXPECT_EQ(all[50], 7);
        EXPECT_EQ(all[110], 14);
      },
      tiny_threshold(32));
}

TEST(Rendezvous, AlltoallPayloadMovesBodies) {
  obs::Scope scope;
  run(
      3,
      [](Communicator& comm) {
        const int rank = comm.rank();
        std::vector<Payload> out(3);
        for (int r = 0; r < 3; ++r) {
          out[static_cast<std::size_t>(r)] =
              Codec<std::string>::encode(std::string(500, static_cast<char>('a' + rank)));
        }
        auto in = comm.alltoall(std::move(out));
        ASSERT_EQ(in.size(), 3u);
        for (int r = 0; r < 3; ++r) {
          const auto text =
              Codec<std::string>::decode(std::move(in[static_cast<std::size_t>(r)]));
          EXPECT_EQ(text, std::string(500, static_cast<char>('a' + r)));
        }
      },
      tiny_threshold(64));
  const obs::Profile p = scope.finish();
  // 3 ranks x 2 remote peers: six parked bodies (self-sends loop back too,
  // so allow more, but at least the remote hops must have parked).
  EXPECT_GE(total(p, obs::Counter::kRdvParked), 6u);
}

// ---------------------------------------------------------------------------
// Chaos scheduling: claim/reclaim races under adversarial preemption.

TEST(Rendezvous, PingPongSurvivesChaosSeeds) {
  for (const std::uint64_t seed : {1ull, 7ull, 42ull}) {
    sched::ChaosScope chaos(seed);
    run(
        2,
        [](Communicator& comm) {
          if (comm.rank() == 0) {
            comm.send(iota_vec(500), 1);
            EXPECT_EQ(comm.recv<std::vector<std::int64_t>>(1), iota_vec(500, 1));
          } else {
            EXPECT_EQ(comm.recv<std::vector<std::int64_t>>(0), iota_vec(500));
            comm.send(iota_vec(500, 1), 0);
          }
        },
        tiny_threshold());
  }
}

TEST(Rendezvous, GathervSurvivesChaosSeeds) {
  for (const std::uint64_t seed : {1ull, 7ull, 42ull}) {
    sched::ChaosScope chaos(seed);
    run(
        4,
        [](Communicator& comm) {
          std::vector<std::int64_t> mine(200, comm.rank());
          const auto all = comm.gatherv(std::move(mine), 0);
          if (comm.rank() == 0) {
            ASSERT_EQ(all.size(), 800u);
            EXPECT_EQ(all[0], 0);
            EXPECT_EQ(all[799], 3);
          }
        },
        tiny_threshold(16));
  }
}

}  // namespace
}  // namespace pml::mp
