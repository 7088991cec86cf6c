/// \file probes.cpp
/// \brief Floor probes for the traced run: the fixed cost of an empty job,
/// region, fork-join and pool drain, each the median of many repetitions.

#include <algorithm>
#include <atomic>

#include "mp/mp.hpp"
#include "probes.hpp"
#include "smp/team.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "thread/pool.hpp"
#include "thread/stealing.hpp"
#include "thread/thread.hpp"

namespace perfbench {

namespace {

/// Median wall time of \p reps calls of \p fn, in microseconds.
template <typename Fn>
double median_us(int reps, const char* span, Fn&& fn) {
  std::vector<double> us;
  us.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    const std::uint64_t t0 = now_ns();
    {
      const Span s(span, i);
      fn();
    }
    us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
  }
  return median(us);
}

constexpr int kDrainTasks = 2048;

}  // namespace

void floor_probes(std::vector<Metric>& out, bool quick) {
  const int reps = quick ? 5 : 200;
  const int drains = quick ? 2 : 30;
  for (int p : {1, 2, 4}) {
    const double us =
        median_us(reps, "mp.run", [&] { pml::mp::run(p, [](pml::mp::Communicator&) {}); });
    out.push_back({"mp.run.empty_job_us.p" + std::to_string(p), us, "us"});
  }

  // Spawn: call -> first rank enters; teardown: last rank leaves -> return.
  std::vector<double> spawn_us;
  std::vector<double> teardown_us;
  for (int i = 0; i < reps; ++i) {
    std::atomic<std::uint64_t> first_in{~std::uint64_t{0}};
    std::atomic<std::uint64_t> last_out{0};
    const std::uint64_t call = now_ns();
    pml::mp::run(
        4,
        [&](pml::mp::Communicator&) {
          std::uint64_t t = now_ns();
          std::uint64_t seen = first_in.load();
          while (t < seen && !first_in.compare_exchange_weak(seen, t)) {
          }
          t = now_ns();
          seen = last_out.load();
          while (t > seen && !last_out.compare_exchange_weak(seen, t)) {
          }
        });
    const std::uint64_t back = now_ns();
    spawn_us.push_back(static_cast<double>(first_in.load() - call) * 1e-3);
    teardown_us.push_back(static_cast<double>(back - last_out.load()) * 1e-3);
  }
  out.push_back({"mp.run.spawn_us", median(spawn_us), "us"});
  out.push_back({"mp.run.teardown_us", median(teardown_us), "us"});

  out.push_back({"smp.parallel.empty_region_us.t4",
                 median_us(reps, "smp.parallel", [] { pml::smp::parallel(4, [](pml::smp::Region&) {}); }),
                 "us"});
  out.push_back({"thread.fork_join.empty_us.t4",
                 median_us(reps, "thread.fork_join", [] { pml::thread::fork_join(4, [](int) {}); }),
                 "us"});

  // Pool drains: 2048 trivial tasks through 4 workers, pool built once.
  std::atomic<long> done{0};
  {
    pml::thread::Pool pool(4);
    out.push_back({"thread.pool.central_drain_us", median_us(drains, "thread.pool.central", [&] {
                     for (int t = 0; t < kDrainTasks; ++t) {
                       pool.submit([&](int) { done.fetch_add(1, std::memory_order_relaxed); });
                     }
                     pool.wait_idle();
                   }),
                   "us"});
  }
  {
    pml::thread::StealingPool pool(4);
    out.push_back({"thread.pool.stealing_drain_us", median_us(drains, "thread.pool.stealing", [&] {
                     for (int t = 0; t < kDrainTasks; ++t) {
                       pool.submit([&] { done.fetch_add(1, std::memory_order_relaxed); });
                     }
                     pool.wait_idle();
                   }),
                   "us"});
  }
  if (done.load() != static_cast<long>(2 * drains) * kDrainTasks) {
    throw std::runtime_error("pool drain lost tasks");
  }
}

}  // namespace perfbench
