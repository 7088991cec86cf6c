/// \file obs_test.cpp
/// \brief Unit tests for pml::obs: scope lifecycle, span recording, counter
/// attribution, and the runner plumbing.

#include "obs/obs.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdlib>
#include <stdexcept>
#include <thread>

#include "core/runner.hpp"
#include "obs/profile.hpp"
#include "patternlets/patternlets.hpp"
#include "sched/sched.hpp"
#include "smp/smp.hpp"
#include "thread/thread.hpp"

namespace pml::obs {
namespace {

TEST(ObsScope, InactiveByDefault) {
  EXPECT_FALSE(active());
  // Hooks outside a scope are no-ops, not crashes.
  count(Counter::kChunks);
  on_queue_depth(17);
  { SpanScope s{SpanKind::kRegion}; }
  EXPECT_EQ(intern("anything"), nullptr);
}

TEST(ObsScope, ActiveInsideScopeOnly) {
  EXPECT_FALSE(active());
  {
    Scope scope;
    EXPECT_TRUE(active());
  }
  EXPECT_FALSE(active());
}

TEST(ObsScope, NestingThrows) {
  Scope outer;
  EXPECT_THROW(Scope inner, std::logic_error);
}

TEST(ObsScope, FinishIsIdempotent) {
  Scope scope;
  { SpanScope s{SpanKind::kTask, "t"}; }
  const Profile first = scope.finish();
  const Profile second = scope.finish();
  EXPECT_EQ(first.spans.size(), second.spans.size());
  EXPECT_FALSE(active());
}

TEST(ObsScope, RecordsSpansWithPayload) {
  Scope scope;
  { SpanScope s{SpanKind::kChunk, "chunk", 10, 20}; }
  const Profile p = scope.finish();
  ASSERT_EQ(p.spans.size(), 1u);
  EXPECT_EQ(p.spans[0].kind, SpanKind::kChunk);
  EXPECT_STREQ(p.spans[0].label, "chunk");
  EXPECT_EQ(p.spans[0].key, 10);
  EXPECT_EQ(p.spans[0].aux, 20);
  EXPECT_GE(p.spans[0].end_ns, p.spans[0].begin_ns);
  EXPECT_GE(p.spans[0].begin_ns, p.origin_ns);
}

TEST(ObsScope, SpansStartedBeforeScopeAreNotRecorded) {
  // A span constructed with no scope active must not report into a scope
  // that opens later (its begin timestamp is the sentinel 0).
  auto orphan = std::make_unique<SpanScope>(SpanKind::kTask, "orphan");
  Scope scope;
  orphan.reset();
  const Profile p = scope.finish();
  EXPECT_TRUE(p.spans.empty());
}

TEST(ObsScope, MergesSpansFromJoinedThreads) {
  Scope scope;
  pml::thread::fork_join(4, [](int id) {
    SpanScope s{SpanKind::kTask, "work", id};
    count(Counter::kTasksRun);
  });
  const Profile p = scope.finish();
  // One region span per team thread (from run_all) + one explicit task span.
  ASSERT_EQ(p.tasks.size(), 4u);
  for (int id = 0; id < 4; ++id) {
    const TaskMetrics& m = p.tasks.at(id);
    EXPECT_EQ(m.spans(SpanKind::kRegion), 1u) << "task " << id;
    EXPECT_EQ(m.spans(SpanKind::kTask), 1u) << "task " << id;
    EXPECT_EQ(m.value(Counter::kTasksRun), 1u) << "task " << id;
  }
  // Spans come out merged and sorted by begin time.
  for (std::size_t i = 1; i < p.spans.size(); ++i) {
    EXPECT_LE(p.spans[i - 1].begin_ns, p.spans[i].begin_ns);
  }
}

TEST(ObsScope, CountersAttributeToTheRecordingTask) {
  Scope scope;
  pml::thread::fork_join(3, [](int id) {
    for (int i = 0; i <= id; ++i) count(Counter::kCombines);
  });
  const Profile p = scope.finish();
  EXPECT_EQ(p.tasks.at(0).value(Counter::kCombines), 1u);
  EXPECT_EQ(p.tasks.at(1).value(Counter::kCombines), 2u);
  EXPECT_EQ(p.tasks.at(2).value(Counter::kCombines), 3u);
}

TEST(ObsScope, CountersFollowEachTaskAcrossRegionsOfDifferentSizes) {
  // The 2-thread team's worker (task 1) runs on the host that ran task 0 of
  // the 4-thread fork-join; its counts must go to its new task, not the
  // old one.
  std::array<std::uint64_t, 4> recorded{};
  const auto record = [&](int id, int threads) {
    const auto chunks = static_cast<std::uint64_t>(1 + id + 10 * threads);
    count(Counter::kChunks, chunks);
    recorded[static_cast<std::size_t>(id)] += chunks;  // distinct slot per id
  };
  Scope scope;
  pml::thread::fork_join(4, [&](int id) { record(id, 4); });
  pml::smp::parallel(2, [&](pml::smp::Region& region) { record(region.thread_num(), 2); });
  const Profile p = scope.finish();
  for (int task = 0; task < 4; ++task) {
    EXPECT_EQ(p.tasks.at(task).value(Counter::kChunks),
              recorded[static_cast<std::size_t>(task)])
        << "task " << task;
  }
}

TEST(ObsScope, UnboundThreadsGetSyntheticTaskIds) {
  Scope scope;
  std::thread outsider([] { SpanScope s{SpanKind::kTask, "aux-work"}; });
  outsider.join();
  const Profile p = scope.finish();
  ASSERT_EQ(p.spans.size(), 1u);
  EXPECT_GE(p.spans[0].task, kUnboundTaskBase);
}

TEST(ObsScope, QueueDepthHighWaterIsMaxAcrossNotes) {
  Scope scope;
  on_queue_depth(2);
  on_queue_depth(9);
  on_queue_depth(4);
  const Profile p = scope.finish();
  EXPECT_EQ(p.mailbox_high_water, 9u);
}

TEST(ObsScope, InternReturnsStablePointerForEqualContent) {
  Scope scope;
  const char* a = intern(std::string("critical(") + "sum" + ")");
  const char* b = intern("critical(sum)");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a, b);
  EXPECT_STREQ(a, "critical(sum)");
}

TEST(ObsScope, SecondScopeStartsEmpty) {
  {
    Scope first;
    SpanScope s{SpanKind::kTask, "first-scope"};
  }
  Scope second;
  const Profile p = second.finish();
  EXPECT_TRUE(p.spans.empty());
}

TEST(ObsRing, ExplicitCapacityBoundsSpansWithExactDropCount) {
  Scope scope{8};
  for (int i = 0; i < 20; ++i) {
    SpanScope s{SpanKind::kChunk, "chunk", i};
  }
  const Profile p = scope.finish();
  EXPECT_EQ(p.spans.size(), 8u);
  EXPECT_EQ(p.spans_dropped, 12u);
  // The registry histogram is bounded by construction, so it keeps
  // recording after the span ring filled: aggregates stay exact.
  EXPECT_EQ(p.metric(Metric::kChunkDuration).count(), 20u);
}

TEST(ObsRing, FlowRingSharesCapacityWithSeparateAccounting) {
  Scope scope{4};
  for (int i = 0; i < 10; ++i) {
    flow_recv(flow_emit(1, 0, 8), 0, 0, 8);
  }
  const Profile p = scope.finish();
  EXPECT_EQ(p.flows.size(), 4u);
  EXPECT_EQ(p.flows_dropped, 16u);
  EXPECT_EQ(p.spans_dropped, 0u);
}

TEST(ObsRing, EnvironmentVariableSetsTheDefaultCapacity) {
  ::setenv("PML_OBS_RING_SPANS", "3", 1);
  {
    Scope scope;  // no explicit capacity: the environment decides
    for (int i = 0; i < 9; ++i) {
      SpanScope s{SpanKind::kChunk, "chunk", i};
    }
    const Profile p = scope.finish();
    EXPECT_EQ(p.spans.size(), 3u);
    EXPECT_EQ(p.spans_dropped, 6u);
  }
  {
    Scope scope{16};  // explicit capacity wins over the environment
    for (int i = 0; i < 9; ++i) {
      SpanScope s{SpanKind::kChunk, "chunk", i};
    }
    const Profile p = scope.finish();
    EXPECT_EQ(p.spans.size(), 9u);
    EXPECT_EQ(p.spans_dropped, 0u);
  }
  ::unsetenv("PML_OBS_RING_SPANS");
}

TEST(ObsRing, RunSpecRingSpansReachesTheScope) {
  pml::patternlets::ensure_registered();
  RunSpec spec;
  spec.tasks = 4;
  spec.all_toggles = true;
  spec.profile = true;
  spec.obs_ring_spans = 2;  // absurdly small: every task overflows
  const RunResult r = pml::run("omp/reduction", spec);
  ASSERT_TRUE(r.metrics.has_value());
  EXPECT_GT(r.metrics->spans_dropped, 0u);
  for (const auto& [task, m] : r.metrics->tasks) {
    EXPECT_LE(m.spans(SpanKind::kChunk) + m.spans(SpanKind::kRegion) +
                  m.spans(SpanKind::kBarrier) + m.spans(SpanKind::kLockWait) +
                  m.spans(SpanKind::kTask) + m.spans(SpanKind::kCollective) +
                  m.spans(SpanKind::kSend) + m.spans(SpanKind::kRecv) +
                  m.spans(SpanKind::kRendezvous),
              2u)
        << "task " << task;
  }
}

TEST(ObsProfile, TableListsEveryTask) {
  Scope scope;
  pml::smp::parallel(3, [](pml::smp::Region& region) {
    region.for_each(0, 30, pml::smp::Schedule{}, [](std::int64_t) {});
  });
  const Profile p = scope.finish();
  const std::string table = p.table();
  EXPECT_NE(table.find("task 0"), std::string::npos);
  EXPECT_NE(table.find("task 2"), std::string::npos);
  EXPECT_NE(table.find("barrier-wait"), std::string::npos);
}

TEST(RunnerProfile, MetricsAbsentByDefault) {
  pml::patternlets::ensure_registered();
  const RunResult r = pml::run("omp/reduction", RunSpec{.tasks = 2});
  EXPECT_FALSE(r.metrics.has_value());
}

TEST(RunnerProfile, ReductionProfileHasChunksBarrierWaitsAndCombines) {
  pml::patternlets::ensure_registered();
  RunSpec spec;
  spec.tasks = 4;
  spec.all_toggles = true;
  spec.profile = true;
  const RunResult r = pml::run("omp/reduction", spec);
  ASSERT_TRUE(r.metrics.has_value());
  const Profile& p = *r.metrics;
  ASSERT_EQ(p.tasks.size(), 4u);
  std::uint64_t chunks = 0;
  std::uint64_t barrier_waits = 0;
  for (const auto& [task, m] : p.tasks) {
    chunks += m.value(Counter::kChunks);
    barrier_waits += m.spans(SpanKind::kBarrier);
  }
  EXPECT_GE(chunks, 4u);
  EXPECT_GT(barrier_waits, 0u);
  // Thread 0 performs the n partial combines of Region::reduce.
  EXPECT_GE(p.tasks.at(0).value(Counter::kCombines), 4u);
  EXPECT_GT(p.seconds(), 0.0);
}

TEST(RunnerProfile, MpProfileHasNodePlacementAndMessageCounts) {
  pml::patternlets::ensure_registered();
  RunSpec spec;
  spec.tasks = 4;
  spec.all_toggles = true;
  spec.profile = true;
  const RunResult r = pml::run("mpi/reduction", spec);
  ASSERT_TRUE(r.metrics.has_value());
  const Profile& p = *r.metrics;
  ASSERT_EQ(p.task_node.size(), 4u);
  EXPECT_EQ(p.task_node.at(0).rfind("node-", 0), 0u);
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
  for (const auto& [task, m] : p.tasks) {
    sent += m.value(Counter::kMessagesSent);
    received += m.value(Counter::kMessagesReceived);
  }
  EXPECT_GT(sent, 0u);
  EXPECT_EQ(sent, received);
}

}  // namespace
}  // namespace pml::obs
