/// \file ckpt_test.cpp
/// \brief Unit and integration tests for pml::ckpt: the Store contract, the
/// versioned snapshot format, the consistent-cut collective, crash recovery
/// through mp::run's restart loop, and the watchdog/checkpoint interplay.

#include "ckpt/ckpt.hpp"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "ckpt/snapshot.hpp"
#include "core/error.hpp"
#include "core/trace.hpp"
#include "fault/fault.hpp"
#include "mp/communicator.hpp"
#include "mp/op.hpp"
#include "mp/runtime.hpp"
#include "obs/obs.hpp"
#include "obs/profile.hpp"

namespace pml::ckpt {
namespace {

RankState rank_state(std::byte marker) {
  RankState rs;
  rs.state = {marker};
  return rs;
}

// ---------------------------------------------------------------------------
// Store contract

TEST(CkptStore, ZeroIntervalIsRejected) {
  Options opts;
  opts.interval = 0;
  EXPECT_THROW(Store s{opts}, UsageError);
}

TEST(CkptStore, NegativeMaxRestartsIsRejected) {
  Options opts;
  opts.max_restarts = -1;
  EXPECT_THROW(Store s{opts}, UsageError);
}

TEST(CkptStore, StageAndSealSyncCommitACut) {
  Store store{Options{}};
  store.begin_job();
  store.stage(3, "loop", 0, rank_state(std::byte{10}));
  store.stage(3, "loop", 1, rank_state(std::byte{11}));
  store.seal(3, /*nprocs=*/2, /*calls=*/3);

  const std::shared_ptr<const GlobalCut> cut = store.committed();
  ASSERT_NE(cut, nullptr);
  EXPECT_EQ(cut->seq, 3u);
  EXPECT_EQ(cut->calls, 3u);
  EXPECT_EQ(cut->nprocs, 2);
  EXPECT_EQ(cut->key, "loop");
  ASSERT_EQ(cut->ranks.size(), 2u);
  EXPECT_EQ(cut->ranks[0].state.at(0), std::byte{10});
  EXPECT_EQ(cut->ranks[1].state.at(0), std::byte{11});

  const Stats s = store.stats();
  EXPECT_EQ(s.commits, 1u);
  EXPECT_GT(s.bytes, 0u);
}

TEST(CkptStore, KeyMismatchIsAUsageError) {
  Store store{Options{}};
  store.begin_job();
  store.stage(1, "alpha", 0, rank_state(std::byte{1}));
  EXPECT_THROW(store.stage(1, "beta", 1, rank_state(std::byte{2})),
               UsageError);
}

TEST(CkptStore, SealingAnIncompleteCutIsARuntimeFault) {
  Store store{Options{}};
  store.begin_job();
  store.stage(1, "loop", 0, rank_state(std::byte{1}));
  // Rank 1 never staged: sealing would publish a half cut.
  EXPECT_THROW(store.seal(1, /*nprocs=*/2, /*calls=*/1), RuntimeFault);
}

TEST(CkptStore, BeginJobDropsThePreviousJobsCutButKeepsStats) {
  Store store{Options{}};
  store.begin_job();
  store.stage(1, "loop", 0, rank_state(std::byte{1}));
  store.seal(1, /*nprocs=*/1, /*calls=*/1);
  ASSERT_NE(store.committed(), nullptr);

  store.begin_job();
  EXPECT_EQ(store.committed(), nullptr);
  EXPECT_EQ(store.stats().commits, 1u);
}

TEST(CkptScope, NestingIsAUsageError) {
  EXPECT_FALSE(active());
  Scope outer{Options{}};
  EXPECT_TRUE(active());
  EXPECT_EQ(current(), &outer.store());
  EXPECT_THROW(Scope inner{Options{}}, UsageError);
  EXPECT_TRUE(active());
}

// ---------------------------------------------------------------------------
// Snapshot format

GlobalCut sample_cut() {
  GlobalCut cut;
  cut.seq = 7;
  cut.calls = 7;
  cut.nprocs = 2;
  cut.key = "iter";
  cut.ranks.resize(2);
  const mp::Payload p0 = mp::Codec<int>::encode(41);
  cut.ranks[0].state.assign(p0.data(), p0.data() + p0.size());
  cut.ranks[0].fault_deliveries = 5;
  cut.ranks[0].fault_checkpoints = 9;
  cut.ranks[0].output_lines = 3;
  mp::Envelope e{0, 1, 12, mp::Codec<int>::encode(99)};
  cut.ranks[0].mailbox.push_back(e);
  const mp::Payload p1 = mp::Codec<int>::encode(42);
  cut.ranks[1].state.assign(p1.data(), p1.data() + p1.size());
  ParkedCopy park;
  park.ticket = 17;
  park.sender = 1;
  park.dest = 0;
  park.tag = 4;
  park.context = 0;
  park.bytes = {std::byte{1}, std::byte{2}, std::byte{3}};
  cut.ranks[1].parks.push_back(park);
  return cut;
}

TEST(CkptSnapshot, EncodeDecodeRoundTrips) {
  const GlobalCut cut = sample_cut();
  const GlobalCut back = decode(encode(cut));

  EXPECT_EQ(back.seq, cut.seq);
  EXPECT_EQ(back.calls, cut.calls);
  EXPECT_EQ(back.nprocs, cut.nprocs);
  EXPECT_EQ(back.key, cut.key);
  ASSERT_EQ(back.ranks.size(), 2u);
  EXPECT_EQ(back.ranks[0].state, cut.ranks[0].state);
  EXPECT_EQ(back.ranks[0].fault_deliveries, 5u);
  EXPECT_EQ(back.ranks[0].fault_checkpoints, 9u);
  EXPECT_EQ(back.ranks[0].output_lines, 3u);
  ASSERT_EQ(back.ranks[0].mailbox.size(), 1u);
  EXPECT_EQ(back.ranks[0].mailbox[0].source, 1);
  EXPECT_EQ(back.ranks[0].mailbox[0].tag, 12);
  EXPECT_EQ(mp::Codec<int>::decode(back.ranks[0].mailbox[0].data), 99);
  ASSERT_EQ(back.ranks[1].parks.size(), 1u);
  EXPECT_EQ(back.ranks[1].parks[0].ticket, 17u);
  EXPECT_EQ(back.ranks[1].parks[0].sender, 1);
  EXPECT_EQ(back.ranks[1].parks[0].bytes, cut.ranks[1].parks[0].bytes);
}

TEST(CkptSnapshot, TruncatedInputThrows) {
  std::vector<std::byte> bytes = encode(sample_cut());
  bytes.resize(bytes.size() - 4);
  EXPECT_THROW(decode(bytes), UsageError);
}

TEST(CkptSnapshot, BadMagicThrows) {
  std::vector<std::byte> bytes = encode(sample_cut());
  bytes[0] = std::byte{'X'};
  EXPECT_THROW(decode(bytes), UsageError);
}

TEST(CkptSnapshot, UnknownVersionThrows) {
  std::vector<std::byte> bytes = encode(sample_cut());
  // The little-endian u32 version follows the 8-byte magic. Version 1 is
  // the older envelope layout, which this reader no longer parses.
  bytes[8] = std::byte{1};
  bytes[9] = bytes[10] = bytes[11] = std::byte{0};
  try {
    (void)decode(bytes);
    FAIL() << "a version-1 snapshot decoded";
  } catch (const UsageError& e) {
    EXPECT_NE(std::string(e.what()).find("unknown version 1"), std::string::npos)
        << e.what();
  }
}

TEST(CkptSnapshot, SaveLoadRoundTripsThroughAFile) {
  const std::string path = ::testing::TempDir() + "pml_ckpt_roundtrip.pmlckpt";
  const GlobalCut cut = sample_cut();
  save(path, encode(cut));
  const GlobalCut back = load(path);
  EXPECT_EQ(back.seq, cut.seq);
  EXPECT_EQ(back.key, cut.key);
  EXPECT_EQ(encode(back), encode(cut));
  std::remove(path.c_str());
}

TEST(CkptSnapshot, LoadOfAMissingFileThrows) {
  EXPECT_THROW(load(::testing::TempDir() + "pml_ckpt_does_not_exist.pmlckpt"),
               UsageError);
}

// ---------------------------------------------------------------------------
// Communicator::checkpoint() contract

TEST(CkptRun, CheckpointingOffIsANoOp) {
  std::array<std::atomic<int>, 2> restored{};
  mp::run(2, [&](mp::Communicator& world) {
    int state = world.rank();
    restored[static_cast<std::size_t>(world.rank())] =
        world.checkpoint("off", state) ? 1 : 0;
    EXPECT_EQ(state, world.rank());  // untouched
  });
  EXPECT_EQ(restored[0], 0);
  EXPECT_EQ(restored[1], 0);
}

TEST(CkptRun, NonWorldCommunicatorIsAUsageError) {
  mp::RunOptions opts;
  opts.checkpoint_interval = 1;
  EXPECT_THROW(mp::run(
                   2,
                   [](mp::Communicator& world) {
                     mp::Communicator clone = world.dup();
                     int state = 0;
                     clone.checkpoint("dup", state);
                   },
                   opts),
               UsageError);
}

TEST(CkptRun, OffIntervalCallsJustTick) {
  Options copts;
  copts.interval = 3;
  Scope scope{copts};
  mp::run(4, [](mp::Communicator& world) {
    int state = 7;
    for (int i = 0; i < 7; ++i) {
      EXPECT_FALSE(world.checkpoint("tick", state));
    }
  });
  // Calls 3 and 6 committed; the committed cut is the latest.
  EXPECT_EQ(scope.store().stats().commits, 2u);
  const std::shared_ptr<const GlobalCut> cut = scope.store().committed();
  ASSERT_NE(cut, nullptr);
  EXPECT_EQ(cut->seq, 6u);
  EXPECT_EQ(cut->nprocs, 4);
}

// ---------------------------------------------------------------------------
// Crash recovery end to end

/// Per-iteration allreduce accumulator; trivially copyable so it rides the
/// scalar Codec.
struct IterState {
  int iter = 0;
  long long acc = 0;
};

/// Runs `iters` allreduce-accumulate rounds with a checkpoint per round.
/// The gate checkpoint before the loop is the restore point.
long long expected_acc(int iters, int nprocs) {
  long long acc = 0;
  for (int i = 1; i <= iters; ++i) {
    acc += static_cast<long long>(i) * nprocs * (nprocs + 1) / 2;
  }
  return acc;
}

void accumulate(mp::Communicator& world, int iters,
                std::atomic<long long>* results) {
  IterState s;
  world.checkpoint("iter", s);
  while (s.iter < iters) {
    const long long mine =
        static_cast<long long>(s.iter + 1) * (world.rank() + 1);
    s.acc += world.allreduce(mine, mp::op_sum<long long>());
    ++s.iter;
    world.checkpoint("iter", s);
  }
  results[world.rank()] = s.acc;
}

TEST(CkptRun, NodeCrashRecoversToTheFaultFreeResult) {
  constexpr int kIters = 30;
  constexpr int kProcs = 4;
  Scope scope{Options{}};
  // Round-robin over two nodes: node-02 (index 1) hosts ranks 1 and 3.
  fault::FaultScope faults{fault::FaultPlan::parse("crash:node-02@40,seed:7")};
  mp::RunOptions opts;
  opts.cluster = mp::Cluster(2, 4, mp::Placement::kRoundRobin);
  opts.collective_timeout = std::chrono::milliseconds(250);
  opts.deadlock_grace = std::chrono::milliseconds(800);
  std::array<std::atomic<long long>, kProcs> results{};

  EXPECT_NO_THROW(mp::run(
      kProcs,
      [&](mp::Communicator& world) { accumulate(world, kIters, results.data()); },
      opts));

  const long long want = expected_acc(kIters, kProcs);
  for (int r = 0; r < kProcs; ++r) {
    EXPECT_EQ(results[static_cast<std::size_t>(r)], want) << "rank " << r;
  }
  // The crash fired and recovery replayed from a committed cut. (The second
  // victim may be pre-empted by the survivors' collective timeout poisoning
  // the attempt, so >= 1 rather than == 2.)
  EXPECT_GE(fault::stats().crashed, 1u);
  EXPECT_GE(scope.store().stats().restarts, 1u);
  EXPECT_GE(scope.store().stats().commits, 1u);
  EXPECT_GE(scope.store().stats().restored_ranks,
            static_cast<std::uint64_t>(kProcs));
  // Satellite: re-hosted ranks must not linger in the crashed set once the
  // job has recovered — the final attempt had no crashes.
  EXPECT_TRUE(fault::crashed_ranks().empty());
}

TEST(CkptRun, RunOptionsIntervalEnablesCheckpointingWithoutAScope) {
  constexpr int kIters = 20;
  constexpr int kProcs = 4;
  fault::FaultScope faults{fault::FaultPlan::parse("crash:node-02@30,seed:3")};
  mp::RunOptions opts;
  opts.cluster = mp::Cluster(2, 4, mp::Placement::kRoundRobin);
  opts.collective_timeout = std::chrono::milliseconds(250);
  opts.deadlock_grace = std::chrono::milliseconds(800);
  opts.checkpoint_interval = 1;
  std::array<std::atomic<long long>, kProcs> results{};

  EXPECT_NO_THROW(mp::run(
      kProcs,
      [&](mp::Communicator& world) { accumulate(world, kIters, results.data()); },
      opts));

  const long long want = expected_acc(kIters, kProcs);
  for (int r = 0; r < kProcs; ++r) {
    EXPECT_EQ(results[static_cast<std::size_t>(r)], want) << "rank " << r;
  }
  EXPECT_GE(fault::stats().crashed, 1u);
  EXPECT_TRUE(fault::crashed_ranks().empty());
}

TEST(CkptRun, CrashBeforeTheFirstCommitReplaysFromScratch) {
  // The victims die before any checkpoint() call, so there is no cut to
  // restore — the retry replays from scratch on the re-hosted cluster.
  constexpr int kProcs = 4;
  Scope scope{Options{}};
  fault::FaultScope faults{fault::FaultPlan::parse("crash:node-02@0")};
  mp::RunOptions opts;
  opts.cluster = mp::Cluster(2, 4, mp::Placement::kRoundRobin);
  opts.collective_timeout = std::chrono::milliseconds(250);
  opts.deadlock_grace = std::chrono::milliseconds(800);
  std::array<std::atomic<long long>, kProcs> results{};

  EXPECT_NO_THROW(mp::run(
      kProcs,
      [&](mp::Communicator& world) { accumulate(world, 5, results.data()); },
      opts));

  const long long want = expected_acc(5, kProcs);
  for (int r = 0; r < kProcs; ++r) {
    EXPECT_EQ(results[static_cast<std::size_t>(r)], want) << "rank " << r;
  }
  EXPECT_GE(scope.store().stats().restarts, 1u);
  EXPECT_TRUE(fault::crashed_ranks().empty());
}

TEST(CkptRun, WithoutAStoreANodeCrashStillAborts) {
  // No scope, no RunOptions interval: the pre-checkpoint behavior — the
  // crash propagates and the job degrades — is unchanged.
  fault::FaultScope faults{fault::FaultPlan::parse("crash:node-02@0")};
  mp::RunOptions opts;
  opts.cluster = mp::Cluster(2, 4, mp::Placement::kRoundRobin);
  opts.collective_timeout = std::chrono::milliseconds(250);
  EXPECT_THROW(mp::run(
                   4,
                   [](mp::Communicator& world) {
                     const int next = (world.rank() + 1) % world.size();
                     world.send(world.rank(), next, 7);
                     (void)world.recv_for<int>(std::chrono::milliseconds(100),
                                               mp::kAnySource, 7);
                   },
                   opts),
               fault::NodeCrashFault);
}

TEST(CkptRun, GivingUpAfterMaxRestartsReportsTheCrash) {
  // Every node hosts a victim, so re-hosting cannot escape the crash plan:
  // after max_restarts attempts the original failure must surface.
  Options copts;
  copts.max_restarts = 1;
  Scope scope{copts};
  fault::FaultScope faults{fault::FaultPlan::parse("crash:node-01@0")};
  mp::RunOptions opts;
  opts.cluster = mp::Cluster(1, 4, mp::Placement::kBlock);
  opts.collective_timeout = std::chrono::milliseconds(250);
  opts.deadlock_grace = std::chrono::milliseconds(500);
  EXPECT_THROW(mp::run(
                   4,
                   [](mp::Communicator& world) {
                     int state = 0;
                     world.checkpoint("stuck", state);
                     world.barrier();
                   },
                   opts),
               fault::NodeCrashFault);
}

// ---------------------------------------------------------------------------
// Channel state: a message in flight at the cut is replayed after restart

TEST(CkptRun, InFlightMessageIsReplayedFromTheCut) {
  // Rank 0 sends before the cut; rank 1 receives after it. The committed
  // cut therefore carries the envelope in rank 1's mailbox snapshot. After
  // the crash the replay skips the send (step is already 1), so the recv
  // can only be satisfied by the restored channel state.
  Scope scope{Options{}};
  fault::FaultScope faults{fault::FaultPlan::parse("crash:node-02@20")};
  mp::RunOptions opts;
  opts.cluster = mp::Cluster(2, 4, mp::Placement::kRoundRobin);
  opts.collective_timeout = std::chrono::milliseconds(250);
  opts.deadlock_grace = std::chrono::milliseconds(800);
  std::atomic<int> got{0};

  EXPECT_NO_THROW(mp::run(
      4,
      [&](mp::Communicator& world) {
        int step = 0;
        world.checkpoint("step", step);  // gate (also the restore point)
        if (step == 0) {
          if (world.rank() == 0) world.send(42, 1, 7);
          step = 1;
          // This cut captures the envelope still queued at rank 1.
          world.checkpoint("step", step);
        }
        if (world.rank() == 1) got = world.recv<int>(0, 7);
        // Burn fault checkpoints until node-02's ranks die (post-cut).
        for (int i = 0; i < 10; ++i) world.barrier();
      },
      opts));

  EXPECT_EQ(got, 42);
  // At least one node-02 rank died (the second victim may be pre-empted by
  // the survivors' collective timeout poisoning the attempt first).
  EXPECT_GE(fault::stats().crashed, 1u);
  EXPECT_GE(scope.store().stats().restarts, 1u);
  EXPECT_TRUE(fault::crashed_ranks().empty());
}

TEST(CkptRun, RestoredChannelStateIsNotTraced) {
  // Two ranks, one per node. Each commit costs rank 1 three receive
  // checkpoints (entry barrier, exit barrier, release), so @6 kills it at
  // its first receive after the second cut, which holds rank 0's message.
  // The first attempt delivers 13 messages: 6 per commit (2 entry tokens,
  // 2 exit tokens, 2 releases) plus the user send. The replayed envelope
  // reaches rank 1 from the restored channel state; it was traced when it
  // was first delivered and must not be traced again.
  fault::FaultScope faults{fault::FaultPlan::parse("crash:node-02@6")};
  pml::Trace trace;
  mp::RunOptions opts;
  opts.cluster = mp::Cluster(2, 1, mp::Placement::kBlock);
  opts.checkpoint_interval = 1;
  opts.message_trace = &trace;
  std::atomic<int> got{0};

  EXPECT_NO_THROW(mp::run(
      2,
      [&](mp::Communicator& world) {
        int step = 0;
        world.checkpoint("step", step);
        if (step == 0) {
          if (world.rank() == 0) world.send(42, 1, 7);
          step = 1;
          world.checkpoint("step", step);
        }
        if (world.rank() == 1) got = world.recv<int>(0, 7);
      },
      opts));

  EXPECT_EQ(got, 42);
  EXPECT_EQ(fault::stats().crashed, 1u);
  EXPECT_EQ(trace.events("message").size(), 13u);
}

// ---------------------------------------------------------------------------
// Watchdog: checkpoint I/O is progress, not a deadlock

TEST(CkptRun, WatchdogTreatsASlowCheckpointWriteAsProgress) {
  // The write hook stalls the seal for twice the deadlock grace while every
  // rank is parked on the release barrier — delivery-quiescent and fully
  // blocked, exactly the false-positive shape the watchdog must ignore.
  Options copts;
  copts.write_hook = [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(600));
  };
  Scope scope{copts};
  mp::RunOptions opts;
  opts.deadlock_grace = std::chrono::milliseconds(250);

  EXPECT_NO_THROW(mp::run(4, [](mp::Communicator& world) {
    int state = 1;
    world.checkpoint("slow", state);
  }, opts));
  EXPECT_EQ(scope.store().stats().commits, 1u);
  EXPECT_GE(scope.store().stats().write_micros, 500000u);
}

TEST(CkptRun, CommitCountersLandOnTheSealingRank) {
  // Rank 0 seals the cut itself, so the write's bytes and time are charged
  // to rank 0's profile, and no task outside the job's ranks shows up.
  obs::Scope profiling;
  Scope scope{Options{}};
  mp::run(4, [](mp::Communicator& world) {
    int state = world.rank();
    world.checkpoint("profiled", state);
  });
  const obs::Profile p = profiling.finish();
  const Stats stats = scope.store().stats();
  ASSERT_EQ(stats.commits, 1u);
  ASSERT_EQ(p.tasks.count(0), 1u);
  EXPECT_EQ(p.tasks.at(0).value(obs::Counter::kCkptBytes), stats.bytes);
  for (const auto& [task, metrics] : p.tasks) {
    EXPECT_LT(task, obs::kUnboundTaskBase);
  }
  for (const auto& span : p.spans) EXPECT_LT(span.task, obs::kUnboundTaskBase);
}

// ---------------------------------------------------------------------------
// Persistence: --ckpt-file / --restart-from

TEST(CkptRun, RestartFromAdoptsASavedSnapshot) {
  const std::string path = ::testing::TempDir() + "pml_ckpt_restart.pmlckpt";
  constexpr int kIters = 6;
  constexpr int kProcs = 2;
  std::array<std::atomic<long long>, kProcs> results{};

  {
    Options copts;
    copts.save_path = path;
    Scope scope{copts};
    mp::run(kProcs, [&](mp::Communicator& world) {
      accumulate(world, kIters, results.data());
    });
    EXPECT_EQ(scope.store().stats().commits,
              static_cast<std::uint64_t>(kIters) + 1);
  }
  const long long want = expected_acc(kIters, kProcs);
  EXPECT_EQ(results[0], want);

  // A fresh job adopts the file: every rank restores the final state at its
  // gate checkpoint and runs zero further iterations.
  std::atomic<int> fresh_iterations{0};
  std::array<std::atomic<long long>, kProcs> resumed{};
  {
    Options copts;
    copts.restart_from = path;
    Scope scope{copts};
    mp::run(kProcs, [&](mp::Communicator& world) {
      IterState s;
      const bool restored = world.checkpoint("iter", s);
      EXPECT_TRUE(restored);
      while (s.iter < kIters) {
        ++fresh_iterations;
        const long long mine =
            static_cast<long long>(s.iter + 1) * (world.rank() + 1);
        s.acc += world.allreduce(mine, mp::op_sum<long long>());
        ++s.iter;
        world.checkpoint("iter", s);
      }
      resumed[static_cast<std::size_t>(world.rank())] = s.acc;
    });
    EXPECT_GE(scope.store().stats().restored_ranks,
              static_cast<std::uint64_t>(kProcs));
  }
  EXPECT_EQ(fresh_iterations, 0);
  EXPECT_EQ(resumed[0], want);
  EXPECT_EQ(resumed[1], want);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace pml::ckpt
