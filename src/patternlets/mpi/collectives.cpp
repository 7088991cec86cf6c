/// \file mpi/collectives.cpp
/// \brief Collective data-movement patternlets: Broadcast (scalar and
/// array), Scatter, Gather (paper Figs. 25-28), and Allgather.

#include <algorithm>
#include <string>
#include <vector>

#include "mp/mp.hpp"
#include "patternlets/mpi/register_mpi.hpp"

namespace pml::patternlets::mpi_detail {

namespace {

std::string join_ints(const std::vector<int>& v) {
  std::string out;
  for (int x : v) {
    out += ' ';
    out += std::to_string(x);
  }
  return out;
}

}  // namespace

void register_collectives(Registry& registry) {
  registry.add(Patternlet{
      .slug = "mpi/broadcast",
      .title = "broadcast.c (MPI version)",
      .tech = Tech::kMPI,
      .patterns = {"Broadcast", "Collective Communication"},
      .summary =
          "The master reads an 'answer' (42) that only it knows; MPI_Bcast "
          "replicates it to every process — afterwards all ranks hold the "
          "same value.",
      .exercise =
          "Run with 4 and 8 processes: every rank reports 42 after the "
          "broadcast but -1 before (except the root). How many messages "
          "would a naive root-sends-to-everyone broadcast need, and how "
          "many rounds does a tree broadcast need?",
      .toggles = {},
      .default_tasks = 4,
      .body =
          [](RunContext& ctx) {
            pml::mp::run(ctx.tasks, [&](pml::mp::Communicator& comm) {
              const int rank = comm.rank();
              int answer = (rank == 0) ? 42 : -1;
              ctx.out.say(rank, "Process " + std::to_string(rank) +
                                    " before broadcast: answer = " +
                                    std::to_string(answer),
                          "BEFORE");
              answer = comm.broadcast(answer, 0);
              ctx.out.say(rank, "Process " + std::to_string(rank) +
                                    " after broadcast: answer = " +
                                    std::to_string(answer),
                          "AFTER");
            });
          },
  });

  registry.add(Patternlet{
      .slug = "mpi/broadcast2",
      .title = "broadcast2.c (MPI version, array)",
      .tech = Tech::kMPI,
      .patterns = {"Broadcast", "Collective Communication", "Data Replication"},
      .summary =
          "Broadcasting a whole array: the master fills an 8-element array; "
          "after MPI_Bcast every process holds an identical copy — the Data "
          "Replication idiom for read-mostly inputs.",
      .exercise =
          "Run with 4 processes. Each rank prints its array before and "
          "after. When is replicating input to every rank the right design, "
          "and when would you scatter it instead?",
      .toggles = {},
      .default_tasks = 4,
      .body =
          [](RunContext& ctx) {
            pml::mp::run(ctx.tasks, [&](pml::mp::Communicator& comm) {
              const int rank = comm.rank();
              std::vector<int> data(8, 0);
              if (rank == 0) {
                for (int i = 0; i < 8; ++i) data[static_cast<std::size_t>(i)] = 11 * (i + 1);
              }
              ctx.out.say(rank, "Process " + std::to_string(rank) + " before:" +
                                    join_ints(data),
                          "BEFORE");
              data = comm.broadcast(data, 0);
              ctx.out.say(rank, "Process " + std::to_string(rank) + " after: " +
                                    join_ints(data),
                          "AFTER");
            });
          },
  });

  registry.add(Patternlet{
      .slug = "mpi/scatter",
      .title = "scatter.c (MPI version)",
      .tech = Tech::kMPI,
      .patterns = {"Scatter", "Collective Communication", "Data Decomposition"},
      .summary =
          "The master builds an array of size()*3 values; MPI_Scatter deals "
          "each process its own 3-element slice — the data-decomposition "
          "mirror image of gather.",
      .exercise =
          "Run with 2 and 4 processes: which values land at which rank? "
          "Combine this patternlet with mpi/gather into a scatter-compute-"
          "gather round trip and check the result equals the input.",
      .toggles = {},
      .default_tasks = 4,
      .body =
          [](RunContext& ctx) {
            constexpr std::size_t kChunk = 3;
            pml::mp::run(ctx.tasks, [&](pml::mp::Communicator& comm) {
              const int rank = comm.rank();
              std::vector<int> all;
              if (rank == 0) {
                all.resize(kChunk * static_cast<std::size_t>(comm.size()));
                for (std::size_t i = 0; i < all.size(); ++i) {
                  all[i] = static_cast<int>(i + 1);
                }
                ctx.out.say(0, "Process 0, sendArray:" + join_ints(all));
              }
              const std::vector<int> mine = comm.scatter(all, kChunk, 0);
              ctx.out.say(rank, "Process " + std::to_string(rank) +
                                    ", receiveArray:" + join_ints(mine));
            });
          },
  });

  registry.add(Patternlet{
      .slug = "mpi/gather",
      .title = "gather.c (MPI version)",
      .tech = Tech::kMPI,
      .patterns = {"Gather", "Collective Communication"},
      .summary =
          "The paper's Fig. 25: every process fills a 3-value array with "
          "rank*10+i; MPI_Gather collects the arrays, in rank order, into "
          "the master's gatherArray (Figs. 26-28).",
      .exercise =
          "Run with 2, 4, and 6 processes and compare with Figs. 26-28. The "
          "gathered values always appear in rank order even though the "
          "computeArray printouts interleave — what guarantees that?",
      .toggles = {},
      .default_tasks = 2,
      .body =
          [](RunContext& ctx) {
            constexpr int kSize = 3;
            pml::mp::run(ctx.tasks, [&](pml::mp::Communicator& comm) {
              const int rank = comm.rank();
              std::vector<int> compute(kSize);
              for (int i = 0; i < kSize; ++i) {
                compute[static_cast<std::size_t>(i)] = rank * 10 + i;
              }
              ctx.out.say(rank, "Process " + std::to_string(rank) +
                                    ", computeArray:" + join_ints(compute));
              const std::vector<int> gathered = comm.gather(compute, 0);
              if (rank == 0) {
                ctx.out.say(0, "Process 0, gatherArray:" + join_ints(gathered),
                            "GATHERED");
              }
            });
          },
  });

  registry.add(Patternlet{
      .slug = "mpi/ringAllreduce",
      .title = "ring_allreduce.c (MPI extension)",
      .tech = Tech::kMPI,
      .patterns = {"Reduction", "Broadcast", "Collective Communication"},
      .summary =
          "Beyond the paper: the bandwidth-optimal allreduce used by data-"
          "parallel training. Each rank contributes an n-element vector; a "
          "ring reduce-scatter leaves every rank owning one fully-reduced "
          "block, and a ring allgather circulates the blocks until all ranks "
          "hold the full result — about 2n(p-1)/p values moved per rank, "
          "versus n*lg(p) for the tree.",
      .exercise =
          "Run with -p ring=1 and -p ring=0 (tree) under --profile and "
          "compare the 'msgs-sent' and bytes numbers. At what vector size "
          "does the ring's lower per-rank traffic beat the tree's lower "
          "round count? Why does the ring require a commutative operation "
          "when the tree does not?",
      .toggles = {},
      .default_tasks = 4,
      .body =
          [](RunContext& ctx) {
            const long n = ctx.param("n", 64);
            const bool ring = ctx.param("ring", 1) != 0;
            pml::mp::run(ctx.tasks, [&](pml::mp::Communicator& comm) {
              const int rank = comm.rank();
              const int p = comm.size();
              std::vector<int> mine(static_cast<std::size_t>(n), rank + 1);
              const auto sum = pml::mp::op_sum<int>();
              const std::vector<int> total =
                  ring ? comm.ring_allreduce(std::move(mine), sum)
                       : comm.broadcast(comm.reduce(std::move(mine), sum, 0), 0);
              // Every element is 1 + 2 + ... + p.
              const int want = p * (p + 1) / 2;
              bool ok = true;
              for (int x : total) ok = ok && (x == want);
              ctx.out.say(rank, "Process " + std::to_string(rank) + ": " +
                                    std::to_string(n) + " elements, all = " +
                                    std::to_string(total.empty() ? 0 : total[0]) +
                                    (ok ? " (correct)" : " (WRONG)"),
                          ok ? "OK" : "WRONG");
            });
          },
      .beyond_paper = true,
  });

  registry.add(Patternlet{
      .slug = "mpi/segmentedBcast",
      .title = "segmented_broadcast.c (MPI extension)",
      .tech = Tech::kMPI,
      .patterns = {"Broadcast", "Pipeline", "Collective Communication"},
      .summary =
          "Beyond the paper: a pipelined broadcast built from plain send and "
          "recv. Rank 0 chops a large body into fixed-size segments and "
          "streams them down a chain of ranks; rank r forwards segment k to "
          "r+1 while segment k+1 is still on its way from r-1, so every link "
          "carries data at once instead of the whole body crossing the "
          "links one after another.",
      .exercise =
          "Run with -p segment=64 and -p segment=0 (one whole-body message) "
          "under --profile and compare the 'msgs-sent' counter. With p "
          "ranks, segment size s and body size m, how many steps does the "
          "whole-body chain take, and how many does the pipeline take? When "
          "is the pipeline faster?",
      .toggles = {},
      .default_tasks = 4,
      .body =
          [](RunContext& ctx) {
            const long n = ctx.param("n", 64);
            const long segment = ctx.param("segment", 64);
            // Whole ints per segment, at least one; segment <= 0 sends the
            // body as a single message.
            const auto per = static_cast<std::size_t>(
                std::max(1L, segment > 0 ? segment / static_cast<long>(sizeof(int)) : n));
            pml::mp::run(ctx.tasks, [&](pml::mp::Communicator& comm) {
              const int rank = comm.rank();
              const int p = comm.size();
              std::vector<int> data(static_cast<std::size_t>(n), 0);
              if (rank == 0) {
                for (std::size_t i = 0; i < data.size(); ++i) {
                  data[i] = static_cast<int>(i);
                }
              }
              // The pipeline: take each segment from the left neighbour and
              // pass it on to the right before taking the next one.
              long segs = 0;
              for (std::size_t off = 0; off < data.size(); off += per, ++segs) {
                const std::size_t len = std::min(per, data.size() - off);
                const auto first = data.begin() + static_cast<std::ptrdiff_t>(off);
                if (rank > 0) {
                  // Bounded copy: a piece duplicated by fault injection may
                  // be longer than the last slot; the check below flags it.
                  const auto piece = comm.recv<std::vector<int>>(rank - 1, 0);
                  std::copy_n(piece.begin(), std::min(len, piece.size()), first);
                }
                if (rank + 1 < p) {
                  comm.send(std::vector<int>(first, first + static_cast<std::ptrdiff_t>(len)),
                            rank + 1, 0);
                }
              }
              bool ok = true;
              for (std::size_t i = 0; i < data.size(); ++i) {
                ok = ok && (data[i] == static_cast<int>(i));
              }
              const long bytes = n * static_cast<long>(sizeof(int));
              ctx.out.say(rank, "Process " + std::to_string(rank) + " received " +
                                    std::to_string(bytes) + " bytes as " +
                                    std::to_string(segs) + " segment(s)" +
                                    (ok ? "" : " (CORRUPT)"),
                          ok ? "OK" : "WRONG");
            });
          },
      .beyond_paper = true,
  });

  registry.add(Patternlet{
      .slug = "mpi/allgather",
      .title = "allgather.c (MPI version)",
      .tech = Tech::kMPI,
      .patterns = {"Gather", "Broadcast", "Collective Communication"},
      .summary =
          "MPI_Allgather: like gather, but *every* process ends up with the "
          "full rank-ordered collection — gather fused with broadcast.",
      .exercise =
          "Run with 4 processes: every rank prints the identical combined "
          "array. Express allgather as two collectives you already know. "
          "Why might a real implementation fuse them?",
      .toggles = {},
      .default_tasks = 4,
      .body =
          [](RunContext& ctx) {
            pml::mp::run(ctx.tasks, [&](pml::mp::Communicator& comm) {
              const int rank = comm.rank();
              const std::vector<int> mine = {rank * 10, rank * 10 + 1};
              const std::vector<int> all = comm.allgather(mine);
              ctx.out.say(rank, "Process " + std::to_string(rank) + " has:" +
                                    join_ints(all));
            });
          },
  });
}

}  // namespace pml::patternlets::mpi_detail
