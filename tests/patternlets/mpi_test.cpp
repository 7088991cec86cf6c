/// \file mpi_test.cpp
/// \brief Behavioral tests for the 16 MPI-style patternlets.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>

#include "core/runner.hpp"
#include "patternlets/patternlets.hpp"

namespace pml::patternlets {
namespace {

class MpiPatternlets : public ::testing::Test {
 protected:
  void SetUp() override { ensure_registered(); }
};

TEST_F(MpiPatternlets, SpmdEveryProcessGreetsWithANodeName) {
  // Paper Figs. 5-6.
  RunSpec spec;
  spec.tasks = 4;
  const RunResult r = run("mpi/spmd", spec);
  ASSERT_EQ(r.output.size(), 4u);
  std::set<std::string> nodes;
  for (const auto& l : r.output) {
    EXPECT_NE(l.text.find("Hello from process " + std::to_string(l.task) + " of 4 on"),
              std::string::npos)
        << l.text;
    nodes.insert(l.text.substr(l.text.rfind(' ') + 1));
  }
  // Default cluster: 8 nodes round-robin, so 4 ranks use 4 distinct nodes.
  EXPECT_EQ(nodes, (std::set<std::string>{"node-01", "node-02", "node-03", "node-04"}));
}

TEST_F(MpiPatternlets, SpmdSingleProcessMatchesFig5) {
  RunSpec spec;
  spec.tasks = 1;
  const RunResult r = run("mpi/spmd", spec);
  ASSERT_EQ(r.output.size(), 1u);
  EXPECT_EQ(r.output[0].text, "Hello from process 0 of 1 on node-01");
}

TEST_F(MpiPatternlets, MasterWorkerCollectsAllResults) {
  RunSpec spec;
  spec.tasks = 5;
  const RunResult r = run("mpi/masterWorker", spec);
  int results = 0;
  for (const auto& t : r.texts()) {
    if (t.find("Master got result") != std::string::npos) ++results;
  }
  EXPECT_EQ(results, 4);
  // Result w*10 + w arrives from worker w.
  for (int w = 1; w < 5; ++w) {
    EXPECT_NE(r.output_str().find("result " + std::to_string(w * 10 + w) +
                                  " from worker " + std::to_string(w)),
              std::string::npos);
  }
}

TEST_F(MpiPatternlets, MessagePassingPairwiseExchange) {
  RunSpec spec;
  spec.tasks = 4;
  const RunResult r = run("mpi/messagePassing", spec);
  // Each rank reports the partner's greeting.
  EXPECT_NE(r.output_str().find("Process 0 received 'greetings from process 1'"),
            std::string::npos);
  EXPECT_NE(r.output_str().find("Process 1 received 'greetings from process 0'"),
            std::string::npos);
  EXPECT_NE(r.output_str().find("Process 3 received 'greetings from process 2'"),
            std::string::npos);
}

TEST_F(MpiPatternlets, MessagePassingOddCountLeavesLastEvenIdle) {
  RunSpec spec;
  spec.tasks = 3;
  const RunResult r = run("mpi/messagePassing", spec);
  EXPECT_NE(r.output_str().find("Process 2 has no partner"), std::string::npos);
}

TEST_F(MpiPatternlets, RingTokenReturnsWithValueP) {
  for (int np : {2, 4, 8}) {
    RunSpec spec;
    spec.tasks = np;
    const RunResult r = run("mpi/ring", spec);
    EXPECT_NE(r.output_str().find("Token returned to process 0 with value " +
                                  std::to_string(np)),
              std::string::npos)
        << np;
  }
}

TEST_F(MpiPatternlets, RingOfOneIsHandled) {
  RunSpec spec;
  spec.tasks = 1;
  const RunResult r = run("mpi/ring", spec);
  EXPECT_NE(r.output_str().find("Ring of 1"), std::string::npos);
}

TEST_F(MpiPatternlets, SendrecvDeadlockDetectedWhenToggleOff) {
  RunSpec spec;
  spec.tasks = 2;
  const RunResult r = run("mpi/sendrecvDeadlock", spec);
  int deadlocked = 0;
  for (const auto& l : r.output) {
    if (l.phase == "DEADLOCK") ++deadlocked;
  }
  EXPECT_EQ(deadlocked, 2);  // both sides starve
}

TEST_F(MpiPatternlets, SendrecvToggleFixesTheExchange) {
  RunSpec spec;
  spec.tasks = 2;
  spec.toggle_overrides = {{"use sendrecv", true}};
  const RunResult r = run("mpi/sendrecvDeadlock", spec);
  EXPECT_NE(r.output_str().find("Process 0 received 200"), std::string::npos);
  EXPECT_NE(r.output_str().find("Process 1 received 100"), std::string::npos);
}

TEST_F(MpiPatternlets, BarrierOnSeparatesBeforeAfter) {
  // Paper Fig. 12.
  RunSpec spec;
  spec.tasks = 4;
  spec.toggle_overrides = {{"MPI_Barrier", true}};
  const RunResult r = run("mpi/barrier", spec);
  EXPECT_TRUE(phase_separated(r.output, phase_is("BEFORE"), phase_is("AFTER")));
  // 2 lines per process, all printed.
  EXPECT_EQ(r.output.size(), 8u);
}

TEST_F(MpiPatternlets, BarrierOffPrintsEverythingAndCanInterleave) {
  RunSpec spec;
  spec.tasks = 4;
  bool interleaved = false;
  for (int attempt = 0; attempt < 50 && !interleaved; ++attempt) {
    const RunResult r = run("mpi/barrier", spec);
    EXPECT_EQ(r.output.size(), 8u);
    interleaved = phases_interleaved(r.output, phase_is("BEFORE"), phase_is("AFTER"));
  }
  EXPECT_TRUE(interleaved);
}

TEST_F(MpiPatternlets, SequenceNumbersAlwaysPrintInRankOrder) {
  RunSpec spec;
  spec.tasks = 6;
  for (int attempt = 0; attempt < 5; ++attempt) {
    const RunResult r = run("mpi/sequenceNumbers", spec);
    ASSERT_EQ(r.output.size(), 6u);
    for (int i = 0; i < 6; ++i) {
      EXPECT_EQ(r.output[static_cast<std::size_t>(i)].task, i);
    }
  }
}

TEST_F(MpiPatternlets, EqualChunksMatchesPaperFig17) {
  RunSpec spec;
  spec.tasks = 2;
  const RunResult r = run("mpi/parallelLoopEqualChunks", spec);
  std::map<int, std::set<std::int64_t>> per;
  for (const auto& e : r.trace) per[e.task].insert(e.key);
  EXPECT_EQ(per[0], (std::set<std::int64_t>{0, 1, 2, 3}));
  EXPECT_EQ(per[1], (std::set<std::int64_t>{4, 5, 6, 7}));
}

TEST_F(MpiPatternlets, EqualChunksUnevenRemainder) {
  RunSpec spec;
  spec.tasks = 4;
  spec.params = {{"reps", 10}};
  const RunResult r = run("mpi/parallelLoopEqualChunks", spec);
  std::map<int, int> counts;
  std::set<std::int64_t> all;
  for (const auto& e : r.trace) {
    counts[e.task] += 1;
    all.insert(e.key);
  }
  EXPECT_EQ(all.size(), 10u);            // full coverage
  EXPECT_EQ(counts[3], 1);               // ceil-chunk shortchanges the last
}

TEST_F(MpiPatternlets, ChunksOf1IsStrideP) {
  RunSpec spec;
  spec.tasks = 4;
  const RunResult r = run("mpi/parallelLoopChunksOf1", spec);
  for (const auto& e : r.trace) EXPECT_EQ(e.task, e.key % 4);
}

TEST_F(MpiPatternlets, BroadcastDelivers42Everywhere) {
  RunSpec spec;
  spec.tasks = 4;
  const RunResult r = run("mpi/broadcast", spec);
  int after_42 = 0;
  for (const auto& l : r.output) {
    if (l.phase == "AFTER") {
      EXPECT_NE(l.text.find("answer = 42"), std::string::npos);
      ++after_42;
    }
    if (l.phase == "BEFORE" && l.task != 0) {
      EXPECT_NE(l.text.find("answer = -1"), std::string::npos);
    }
  }
  EXPECT_EQ(after_42, 4);
}

TEST_F(MpiPatternlets, Broadcast2ReplicatesTheArray) {
  RunSpec spec;
  spec.tasks = 4;
  const RunResult r = run("mpi/broadcast2", spec);
  int after_full = 0;
  for (const auto& l : r.output) {
    if (l.phase == "AFTER") {
      EXPECT_NE(l.text.find("11 22 33 44 55 66 77 88"), std::string::npos) << l.text;
      ++after_full;
    }
  }
  EXPECT_EQ(after_full, 4);
}

TEST_F(MpiPatternlets, ScatterDealsDistinctSlices) {
  RunSpec spec;
  spec.tasks = 4;
  const RunResult r = run("mpi/scatter", spec);
  for (int rank = 0; rank < 4; ++rank) {
    const std::string expect = "Process " + std::to_string(rank) + ", receiveArray: " +
                               std::to_string(rank * 3 + 1) + " " +
                               std::to_string(rank * 3 + 2) + " " +
                               std::to_string(rank * 3 + 3);
    EXPECT_NE(r.output_str().find(expect), std::string::npos) << expect;
  }
}

TEST_F(MpiPatternlets, GatherMatchesPaperFigures) {
  // Figs. 26-28: np = 2, 4, 6.
  for (int np : {2, 4, 6}) {
    RunSpec spec;
    spec.tasks = np;
    const RunResult r = run("mpi/gather", spec);
    std::string expected = "Process 0, gatherArray:";
    for (int rank = 0; rank < np; ++rank) {
      for (int i = 0; i < 3; ++i) expected += " " + std::to_string(rank * 10 + i);
    }
    EXPECT_NE(r.output_str().find(expected), std::string::npos) << expected;
  }
}

TEST_F(MpiPatternlets, AllgatherEveryoneHasEverything) {
  RunSpec spec;
  spec.tasks = 3;
  const RunResult r = run("mpi/allgather", spec);
  for (int rank = 0; rank < 3; ++rank) {
    EXPECT_NE(r.output_str().find("Process " + std::to_string(rank) +
                                  " has: 0 1 10 11 20 21"),
              std::string::npos);
  }
}

TEST_F(MpiPatternlets, ReductionReproducesFig24) {
  RunSpec spec;
  spec.tasks = 10;
  const RunResult r = run("mpi/reduction", spec);
  EXPECT_NE(r.output_str().find("The sum of the squares is 385"), std::string::npos);
  EXPECT_NE(r.output_str().find("The max of the squares is 100"), std::string::npos);
  // Every rank announced its square.
  for (int rank = 0; rank < 10; ++rank) {
    EXPECT_NE(r.output_str().find("Process " + std::to_string(rank) + " computed " +
                                  std::to_string((rank + 1) * (rank + 1))),
              std::string::npos);
  }
}

TEST_F(MpiPatternlets, Reduction2ElementwiseAndMaxloc) {
  RunSpec spec;
  spec.tasks = 4;
  const RunResult r = run("mpi/reduction2", spec);
  // Sums: ranks 0..3 -> [0+1+2+3, 2*(0..3), 3*(0..3)] = [6, 12, 18].
  EXPECT_NE(r.output_str().find("Elementwise sums: 6 12 18"), std::string::npos);
  EXPECT_NE(r.output_str().find("Largest contribution 9 came from process 3"),
            std::string::npos);
}

TEST_F(MpiPatternlets, SegmentedBcastPipelineDeliversTheArrayWithItsOwnMessages) {
  // The default body is 64 ints = 256 bytes; segment 0 sends it whole. The
  // chain pipeline sends every segment once over each of the p-1 links, and
  // nothing else moves in the job.
  for (const int tasks : {1, 2, 3, 4}) {
    for (const long segment : {0L, 16L, 64L}) {
      RunSpec spec;
      spec.tasks = tasks;
      spec.profile = true;
      spec.params = {{"segment", segment}};
      const RunResult r = run("mpi/segmentedBcast", spec);
      const long segs = segment == 0 ? 1 : 256 / segment;
      ASSERT_EQ(r.output.size(), static_cast<std::size_t>(tasks));
      for (const auto& line : r.output) {
        EXPECT_EQ(line.text, "Process " + std::to_string(line.task) +
                                 " received 256 bytes as " + std::to_string(segs) +
                                 " segment(s)")
            << "tasks=" << tasks << " segment=" << segment;
      }
      ASSERT_TRUE(r.metrics.has_value());
      std::uint64_t sent = 0;
      for (const auto& [task, m] : r.metrics->tasks) {
        sent += m.value(obs::Counter::kMessagesSent);
      }
      EXPECT_EQ(sent, static_cast<std::uint64_t>((tasks - 1) * segs))
          << "tasks=" << tasks << " segment=" << segment;
    }
  }
}

}  // namespace
}  // namespace pml::patternlets
