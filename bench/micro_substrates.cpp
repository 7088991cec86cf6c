/// \file micro_substrates.cpp
/// \brief google-benchmark microbenchmarks and ablations of the substrate
/// primitives: mailbox ops, point-to-point latency, collective algorithms
/// (tree vs flat), barrier, loop schedules, and the mutual-exclusion
/// mechanisms behind the Fig. 30 lesson.
///
/// Besides the console table, every per-iteration timing is captured into
/// the shared JsonReporter, so `BENCH_micro_substrates.json` joins the
/// recorded perf trajectory (median/p10/p90 per benchmark; run with
/// --benchmark_repetitions=N to get N samples per series). The bench CI job
/// gates on the mailbox ping-pong medians in that file.

#include <benchmark/benchmark.h>
#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <future>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "mp/mp.hpp"
#include "smp/smp.hpp"
#include "thread/mutex.hpp"
#include "thread/pool.hpp"
#include "thread/stealing.hpp"
#include "thread/thread.hpp"

namespace {

using namespace pml;

// ---- Mailbox / point-to-point --------------------------------------------

void BM_MailboxDeliverReceive(benchmark::State& state) {
  mp::Mailbox mb;
  const auto payload = mp::Codec<int>::encode(42);
  for (auto _ : state) {
    mb.deliver(mp::Envelope{0, 0, 0, payload});
    benchmark::DoNotOptimize(mb.receive(0, 0, 0));
  }
}
BENCHMARK(BM_MailboxDeliverReceive);

void BM_MailboxMatchDepth(benchmark::State& state) {
  // Exact-match receive with N other (source, tag) streams already queued.
  // The old matcher scanned the whole deque past the N strangers on every
  // receive (O(depth)); the bucketed store finds the wanted stream in one
  // hash probe regardless of depth. This is the farm/manager pattern shape:
  // a manager's mailbox holds a backlog from many workers while it receives
  // from a specific one.
  const int depth = static_cast<int>(state.range(0));
  mp::Mailbox mb;
  const auto payload = mp::Codec<int>::encode(42);
  for (int s = 0; s < depth; ++s) {
    mb.deliver(mp::Envelope{/*source=*/s + 1, /*tag=*/7, /*context=*/0, payload});
  }
  for (auto _ : state) {
    mb.deliver(mp::Envelope{0, 0, 0, payload});
    benchmark::DoNotOptimize(mb.receive(0, 0, 0));
  }
}
BENCHMARK(BM_MailboxMatchDepth)->Arg(16)->Arg(64)->Arg(256);

void BM_PingPong(benchmark::State& state) {
  const int rounds = static_cast<int>(state.range(0));
  for (auto _ : state) {
    mp::run(2, [&](mp::Communicator& comm) {
      for (int i = 0; i < rounds; ++i) {
        if (comm.rank() == 0) {
          comm.send(i, 1);
          benchmark::DoNotOptimize(comm.recv<int>(1));
        } else {
          const int v = comm.recv<int>(0);
          comm.send(v, 0);
        }
      }
    });
  }
  state.SetItemsProcessed(state.iterations() * rounds * 2);
}
BENCHMARK(BM_PingPong)->Arg(64)->Arg(512);

long voluntary_switches() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_nvcsw;
}

void BM_HaloExchange(benchmark::State& state) {
  // The halo stencil's communication without its arithmetic: 4 ranks on a
  // line, each step sends one double to each neighbour and receives one
  // from each. nvcsw_per_rank_step counts the process's voluntary context
  // switches (getrusage ru_nvcsw) per rank-step: every futex sleep, on a
  // contended mailbox lock or a parked receive, is one.
  constexpr int kRanks = 4;
  const int steps = static_cast<int>(state.range(0));
  long switches = 0;
  for (auto _ : state) {
    const long before = voluntary_switches();
    mp::run(kRanks, [&](mp::Communicator& comm) {
      const int r = comm.rank();
      double ghost = r;
      for (int s = 0; s < steps; ++s) {
        if (r + 1 < kRanks) comm.send(ghost, r + 1);
        if (r > 0) comm.send(ghost, r - 1);
        if (r > 0) ghost = comm.recv<double>(r - 1);
        if (r + 1 < kRanks) ghost += comm.recv<double>(r + 1);
      }
      benchmark::DoNotOptimize(ghost);
    });
    switches += voluntary_switches() - before;
  }
  const double rank_steps = static_cast<double>(state.iterations()) * steps * kRanks;
  state.SetItemsProcessed(state.iterations() * steps);
  state.counters["nvcsw_per_rank_step"] = static_cast<double>(switches) / rank_steps;
}
BENCHMARK(BM_HaloExchange)->Arg(2000);

// Message-size sweep, 64 B → 16 MB. range(0) is the body size in BYTES (the
// old bench's range was a round count over a fixed 4 KiB body — and its one
// registered arg made the label read like a 64-byte, inline-only run).
// Bodies past the eager threshold (8 KiB default) ride the rendezvous path:
// ownership transfer instead of memcpy, so the large-size floors measure
// matching latency, not memory bandwidth. Each rank recycles the buffer it
// received for its next send, so the steady state allocates nothing and the
// eager ablation below differs only in its per-hop copies.
constexpr int kPingPongRounds = 8;

template <typename Options>
void ping_pong_sweep(benchmark::State& state, const Options& options) {
  const std::size_t bytes = static_cast<std::size_t>(state.range(0));
  const std::size_t count = bytes / sizeof(long);
  for (auto _ : state) {
    mp::run(
        2,
        [&](mp::Communicator& comm) {
          if (comm.rank() == 0) {
            std::vector<long> body(count, 7);
            for (int i = 0; i < kPingPongRounds; ++i) {
              comm.send(std::move(body), 1);
              body = comm.recv<std::vector<long>>(1);
            }
            benchmark::DoNotOptimize(body.data());
          } else {
            for (int i = 0; i < kPingPongRounds; ++i) {
              auto v = comm.recv<std::vector<long>>(0);
              comm.send(std::move(v), 0);
            }
          }
        },
        options);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kPingPongRounds * 2 * static_cast<std::int64_t>(bytes));
}

void BM_PingPongLargePayload(benchmark::State& state) {
  ping_pong_sweep(state, mp::RunOptions{});
}
BENCHMARK(BM_PingPongLargePayload)
    ->Arg(64)
    ->Arg(4096)
    ->Arg(65536)
    ->Arg(1 << 20)
    ->Arg(16 << 20);

void BM_PingPongLargeEager(benchmark::State& state) {
  // Ablation: rendezvous disabled (threshold = SIZE_MAX), so every body is
  // copied into and out of its envelope. The gap between this and
  // BM_PingPongLargePayload at the same size is the measured zero-copy win.
  mp::RunOptions options;
  options.eager_bytes = std::numeric_limits<std::size_t>::max();
  ping_pong_sweep(state, options);
}
BENCHMARK(BM_PingPongLargeEager)->Arg(65536)->Arg(1 << 20)->Arg(16 << 20);

// ---- Collectives: tree vs flat ablation -----------------------------------

void BM_BroadcastTree(benchmark::State& state) {
  const int np = static_cast<int>(state.range(0));
  const std::vector<long> payload(256, 7);
  for (auto _ : state) {
    mp::run(np, [&](mp::Communicator& comm) {
      benchmark::DoNotOptimize(comm.broadcast(payload, 0));
    });
  }
}
BENCHMARK(BM_BroadcastTree)->Arg(4)->Arg(16)->Arg(64);

void BM_BroadcastFlat(benchmark::State& state) {
  const int np = static_cast<int>(state.range(0));
  const std::vector<long> payload(256, 7);
  for (auto _ : state) {
    mp::run(np, [&](mp::Communicator& comm) {
      benchmark::DoNotOptimize(comm.flat_broadcast(payload, 0));
    });
  }
}
BENCHMARK(BM_BroadcastFlat)->Arg(4)->Arg(16)->Arg(64);

void BM_ReduceTree(benchmark::State& state) {
  const int np = static_cast<int>(state.range(0));
  for (auto _ : state) {
    mp::run(np, [&](mp::Communicator& comm) {
      benchmark::DoNotOptimize(
          comm.reduce(static_cast<long>(comm.rank()), mp::op_sum<long>(), 0));
    });
  }
}
BENCHMARK(BM_ReduceTree)->Arg(4)->Arg(16)->Arg(64);

void BM_ReduceFlat(benchmark::State& state) {
  const int np = static_cast<int>(state.range(0));
  for (auto _ : state) {
    mp::run(np, [&](mp::Communicator& comm) {
      benchmark::DoNotOptimize(
          comm.flat_reduce(static_cast<long>(comm.rank()), mp::op_sum<long>(), 0));
    });
  }
}
BENCHMARK(BM_ReduceFlat)->Arg(4)->Arg(16)->Arg(64);

void BM_AllreduceClassic(benchmark::State& state) {
  const int np = static_cast<int>(state.range(0));
  for (auto _ : state) {
    mp::run(np, [&](mp::Communicator& comm) {
      benchmark::DoNotOptimize(
          comm.allreduce(static_cast<long>(comm.rank()), mp::op_sum<long>()));
    });
  }
}
BENCHMARK(BM_AllreduceClassic)->Arg(4)->Arg(16);

// ---- Collectives: bandwidth tier (ring vs tree, tree broadcast) -----------
//
// Large-vector ablation, size x ranks. range(0) is the body size in BYTES,
// range(1) the rank count, so labels read BM_AllreduceRing/1048576/8. The
// tree moves ~N*lg(p) bytes through the root's subtree links while the ring
// moves 2N(p-1)/p per rank in N/p blocks that all ride the zero-copy
// rendezvous path — at 1 MiB x 8 the ring's median must stay >= 2x faster
// (EXPERIMENTS.md section COLL-SWEEP records the measured ratios).
//
// Timed the way the MPI benchmarking tradition times collectives (OSU,
// Intel IMB): every rank builds its contribution, meets a barrier, and
// rank 0's clock runs from that barrier until the closing barrier confirms
// every rank holds the result. Spawning the ranks and filling the operands
// are real costs, but they are identical across algorithms and measuring
// them would dilute the ring-vs-tree ratio this sweep exists to pin.

/// Times \p allreduce(comm, body) on every rank, barrier to barrier.
template <typename Allreduce>
void allreduce_sweep(benchmark::State& state, Allreduce allreduce) {
  const std::size_t bytes = static_cast<std::size_t>(state.range(0));
  const int np = static_cast<int>(state.range(1));
  const std::size_t count = bytes / sizeof(long);
  for (auto _ : state) {
    double elapsed = 0.0;
    mp::run(np, [&](mp::Communicator& comm) {
      std::vector<long> body(count, comm.rank());
      comm.barrier();
      const auto t0 = std::chrono::steady_clock::now();
      benchmark::DoNotOptimize(allreduce(comm, std::move(body)));
      comm.barrier();
      if (comm.rank() == 0) {
        elapsed = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
      }
    });
    state.SetIterationTime(elapsed);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
}

void BM_AllreduceRing(benchmark::State& state) {
  allreduce_sweep(state, [](const mp::Communicator& comm, std::vector<long> body) {
    return comm.ring_allreduce(std::move(body), mp::op_sum<long>());
  });
}

void BM_AllreduceTree(benchmark::State& state) {
  allreduce_sweep(state, [](const mp::Communicator& comm, std::vector<long> body) {
    return comm.broadcast(comm.reduce(std::move(body), mp::op_sum<long>(), 0), 0);
  });
}

#define PML_COLL_SWEEP(bench)                                          \
  BENCHMARK(bench)                                                     \
      ->Args({4096, 4})->Args({4096, 8})->Args({4096, 16})             \
      ->Args({65536, 4})->Args({65536, 8})->Args({65536, 16})          \
      ->Args({1 << 20, 4})->Args({1 << 20, 8})->Args({1 << 20, 16})    \
      ->Args({16 << 20, 4})->Args({16 << 20, 8})->Args({16 << 20, 16}) \
      ->UseManualTime()
PML_COLL_SWEEP(BM_AllreduceRing);
PML_COLL_SWEEP(BM_AllreduceTree);
#undef PML_COLL_SWEEP

// The binomial-tree broadcast of a large vector, timed the same way. The
// series keeps its historical name: every tree hop moves the whole body.
void BM_BroadcastWhole(benchmark::State& state) {
  const std::size_t bytes = static_cast<std::size_t>(state.range(0));
  const int np = static_cast<int>(state.range(1));
  const std::size_t count = bytes / sizeof(long);
  const std::vector<long> payload(count, 7);
  for (auto _ : state) {
    double elapsed = 0.0;
    mp::run(np, [&](mp::Communicator& comm) {
      comm.barrier();
      const auto t0 = std::chrono::steady_clock::now();
      benchmark::DoNotOptimize(comm.broadcast(payload, 0));
      comm.barrier();
      if (comm.rank() == 0) {
        elapsed = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
      }
    });
    state.SetIterationTime(elapsed);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_BroadcastWhole)
    ->Args({1 << 20, 4})->Args({1 << 20, 8})
    ->Args({16 << 20, 4})->Args({16 << 20, 8})
    ->UseManualTime();

// ---- Checkpoint overhead ----------------------------------------------------
//
// Cost of one committed consistent cut: every rank serializes a range(0)-byte
// state, runs the two cut barriers, snapshots its mailbox, and rank 0 seals
// (in-memory store, no disk). This is the per-commit tax a --ckpt job pays,
// the number HANDBOOK's "Checkpoint & restart" section quotes, and the gated
// floor that keeps the cut protocol from quietly gaining extra barriers or
// payload copies.

void BM_CheckpointCommit(benchmark::State& state) {
  const std::size_t bytes = static_cast<std::size_t>(state.range(0));
  const int np = static_cast<int>(state.range(1));
  const std::size_t count = bytes / sizeof(long);
  const int reps = 8;
  mp::RunOptions options;
  options.checkpoint_interval = 1;  // every checkpoint() call commits
  for (auto _ : state) {
    mp::run(
        np,
        [&](mp::Communicator& comm) {
          std::vector<long> snapshot(count, comm.rank());
          for (int i = 0; i < reps; ++i) {
            comm.checkpoint("bench", snapshot);
          }
        },
        options);
  }
  state.SetItemsProcessed(state.iterations() * reps);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * reps *
                          static_cast<std::int64_t>(bytes) * np);
}
BENCHMARK(BM_CheckpointCommit)->Args({65536, 4});

void BM_DisseminationBarrier(benchmark::State& state) {
  const int np = static_cast<int>(state.range(0));
  const int reps = 32;
  for (auto _ : state) {
    mp::run(np, [&](mp::Communicator& comm) {
      for (int i = 0; i < reps; ++i) comm.barrier();
    });
  }
  state.SetItemsProcessed(state.iterations() * reps);
}
BENCHMARK(BM_DisseminationBarrier)->Arg(2)->Arg(4)->Arg(8);

void BM_CentralBarrier(benchmark::State& state) {
  // The shared-memory central (sense-reversing) barrier for contrast.
  const int parties = static_cast<int>(state.range(0));
  const int reps = 32;
  for (auto _ : state) {
    pml::thread::Barrier barrier(parties);
    pml::thread::fork_join(parties, [&](int) {
      for (int i = 0; i < reps; ++i) barrier.arrive_and_wait();
    });
  }
  state.SetItemsProcessed(state.iterations() * reps);
}
BENCHMARK(BM_CentralBarrier)->Arg(2)->Arg(8);

// ---- Loop schedules ---------------------------------------------------------

void schedule_bench(benchmark::State& state, const smp::Schedule& schedule) {
  const std::int64_t n = 4096;
  for (auto _ : state) {
    std::atomic<long> sink{0};
    smp::parallel_for(2, 0, n, schedule, [&](int, std::int64_t i) {
      sink.fetch_add(i, std::memory_order_relaxed);
    });
    benchmark::DoNotOptimize(sink.load());
  }
  state.SetItemsProcessed(state.iterations() * n);
}

void BM_ScheduleStatic(benchmark::State& state) {
  schedule_bench(state, smp::Schedule::static_equal());
}
void BM_ScheduleChunks1(benchmark::State& state) {
  schedule_bench(state, smp::Schedule::static_chunks(1));
}
void BM_ScheduleDynamic(benchmark::State& state) {
  schedule_bench(state, smp::Schedule::dynamic(16));
}
void BM_ScheduleGuided(benchmark::State& state) {
  schedule_bench(state, smp::Schedule::guided(16));
}
BENCHMARK(BM_ScheduleStatic);
BENCHMARK(BM_ScheduleChunks1);
BENCHMARK(BM_ScheduleDynamic);
BENCHMARK(BM_ScheduleGuided);

// ---- Mutual exclusion mechanisms (the Fig. 30 ablation) --------------------

void BM_DepositsAtomic(benchmark::State& state) {
  const long reps = 100000;
  for (auto _ : state) {
    double balance = 0.0;
    smp::parallel_for(4, 0, reps,
                      [&](int, std::int64_t) { smp::atomic_add(balance, 1.0); });
    benchmark::DoNotOptimize(balance);
  }
  state.SetItemsProcessed(state.iterations() * reps);
}
BENCHMARK(BM_DepositsAtomic);

void BM_DepositsCritical(benchmark::State& state) {
  const long reps = 100000;
  for (auto _ : state) {
    double balance = 0.0;
    smp::parallel(4, [&](smp::Region& region) {
      region.for_each(0, reps, smp::Schedule::static_equal(), [&](std::int64_t) {
        region.critical([&] { balance += 1.0; });
      });
    });
    benchmark::DoNotOptimize(balance);
  }
  state.SetItemsProcessed(state.iterations() * reps);
}
BENCHMARK(BM_DepositsCritical);

void BM_DepositsSpinlock(benchmark::State& state) {
  const long reps = 100000;
  for (auto _ : state) {
    double balance = 0.0;
    pml::thread::Spinlock lock;
    smp::parallel_for(4, 0, reps, [&](int, std::int64_t) {
      lock.lock();
      balance += 1.0;
      lock.unlock();
    });
    benchmark::DoNotOptimize(balance);
  }
  state.SetItemsProcessed(state.iterations() * reps);
}
BENCHMARK(BM_DepositsSpinlock);

void BM_DepositsLocalSums(benchmark::State& state) {
  // The reduction-style fix: no synchronization in the hot loop at all.
  const long reps = 100000;
  for (auto _ : state) {
    const double balance = smp::parallel_for_reduce<double>(
        4, 0, reps, smp::Schedule::static_equal(), smp::op_plus<double>(),
        [](std::int64_t) { return 1.0; });
    benchmark::DoNotOptimize(balance);
  }
  state.SetItemsProcessed(state.iterations() * reps);
}
BENCHMARK(BM_DepositsLocalSums);

// ---- Pool topology ablation: central queue vs work stealing ----------------

void BM_PoolCentralQueue(benchmark::State& state) {
  const int tasks = 2048;
  for (auto _ : state) {
    pml::thread::Pool pool(4);
    std::atomic<long> sink{0};
    for (int i = 0; i < tasks; ++i) {
      pool.submit([&](int) { sink.fetch_add(1, std::memory_order_relaxed); });
    }
    pool.wait_idle();
    benchmark::DoNotOptimize(sink.load());
  }
  state.SetItemsProcessed(state.iterations() * tasks);
}
BENCHMARK(BM_PoolCentralQueue);

void BM_PoolWorkStealing(benchmark::State& state) {
  const int tasks = 2048;
  for (auto _ : state) {
    pml::thread::StealingPool pool(4);
    std::atomic<long> sink{0};
    for (int i = 0; i < tasks; ++i) {
      pool.submit([&] { sink.fetch_add(1, std::memory_order_relaxed); });
    }
    pool.wait_idle();
    benchmark::DoNotOptimize(sink.load());
  }
  state.SetItemsProcessed(state.iterations() * tasks);
}
BENCHMARK(BM_PoolWorkStealing);

// ---- Team / region overheads ------------------------------------------------

void BM_ParallelRegionForkJoin(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    std::atomic<int> sink{0};
    smp::parallel(threads, [&](smp::Region& region) {
      sink.fetch_add(region.thread_num(), std::memory_order_relaxed);
    });
    benchmark::DoNotOptimize(sink.load());
  }
}
BENCHMARK(BM_ParallelRegionForkJoin)->Arg(2)->Arg(4)->Arg(8);

void BM_RegionReduce(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    long result = 0;
    smp::parallel(threads, [&](smp::Region& region) {
      const long sum = region.reduce(static_cast<long>(region.thread_num()),
                                     [](long a, long b) { return a + b; }, 0L);
      region.master([&] { result = sum; });
    });
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_RegionReduce)->Arg(2)->Arg(8);

// ---- JSON companion ---------------------------------------------------------

/// Console output as usual, plus every non-aggregate run captured as one
/// sample (seconds per iteration) for the BENCH_micro_substrates.json
/// trajectory file.
class CapturingReporter : public benchmark::ConsoleReporter {
 public:
  explicit CapturingReporter(pml::bench::JsonReporter* json) : json_(json) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      // For UseManualTime benches real_accumulated_time carries the manual
      // clock, and google-benchmark tags the name with "/manual_time".
      // Strip the tag so the JSON label stays the stable series key the
      // gate and the CI schema check address.
      std::string label = run.benchmark_name();
      constexpr std::string_view kManualTag = "/manual_time";
      if (label.ends_with(kManualTag)) {
        label.resize(label.size() - kManualTag.size());
      }
      samples_[std::move(label)].push_back(
          run.real_accumulated_time / static_cast<double>(run.iterations));
    }
  }

  void Finalize() override {
    for (auto& [label, seconds] : samples_) {
      json_->add_series(label, /*tasks=*/0, std::move(seconds));
    }
    ConsoleReporter::Finalize();
  }

 private:
  pml::bench::JsonReporter* json_;
  std::map<std::string, std::vector<double>> samples_;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  pml::bench::JsonReporter json("micro_substrates");
  CapturingReporter reporter(&json);
  // A job always has threads, and glibc's pthread_mutex_lock takes its
  // atomic path only once the process has started one. A parked helper puts
  // every series, the first ones included, on the lock path a job pays.
  std::promise<void> stop;
  std::thread helper([done = stop.get_future()] { done.wait(); });
  benchmark::RunSpecifiedBenchmarks(&reporter);
  stop.set_value();
  helper.join();
  benchmark::Shutdown();
  return 0;  // the JsonReporter destructor writes BENCH_micro_substrates.json
}
