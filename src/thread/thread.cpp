#include "thread/thread.hpp"

#include <exception>
#include <vector>

#include "analyze/analyze.hpp"
#include "obs/obs.hpp"
#include "sched/sched.hpp"

namespace pml::thread {

namespace {

void run_all(int n, int first_spawned, const std::function<void(int)>& fn,
             std::vector<std::exception_ptr>& errors) {
  // Fork/join happens-before edges for the analyzer, keyed on this call's
  // stack frame (&errors). Fork and join use DISTINCT keys: with a single
  // key, a worker that happens to finish before a sibling is spawned (the
  // rule, not the exception, on one core) would release its whole history
  // into the very object the sibling fork-acquires — manufacturing a
  // worker->worker edge no real primitive implies and masking every race
  // the serial schedule didn't overlap. Offsetting the fork key by one byte
  // keeps it unique per frame and (being odd) disjoint from the analyzer's
  // even real-address sync keys.
  const void* fork_key = reinterpret_cast<const char*>(&errors) + 1;
  const void* join_key = &errors;
  analyze::on_sync_release(fork_key);
  // Under cooperative verification the team registers with the scheduler
  // before any worker starts: children identify as deterministic slots
  // (token base + id), and no scheduling decision is taken while a
  // registration is pending — the ready set at every decision is a pure
  // function of the schedule, which is what makes replay exact.
  sched::coop_spawned(join_key, static_cast<std::uint32_t>(n),
                      static_cast<std::uint32_t>(n - first_spawned));
  std::vector<HostThread> workers;
  workers.reserve(static_cast<std::size_t>(n - first_spawned));
  for (int id = first_spawned; id < n; ++id) {
    workers.emplace_back([&, id, fork_key, join_key] {
      // Bind the perturbation lane to the team-relative id so a chaos seed
      // replays the same per-thread schedule across regions and runs.
      sched::bind_lane(static_cast<std::uint32_t>(id));
      sched::coop_lane_begin(join_key, static_cast<std::uint32_t>(id));
      analyze::on_sync_acquire(fork_key);
      try {
        // One region span per team thread, covering its whole body.
        obs::SpanScope region{obs::SpanKind::kRegion, "worker", id, n};
        fn(id);
      } catch (...) {
        errors[static_cast<std::size_t>(id)] = std::current_exception();
      }
      analyze::on_sync_release(join_key);
      sched::coop_lane_end(join_key);
    });
  }
  if (first_spawned == 1) {
    sched::bind_lane(0);
    analyze::on_sync_acquire(fork_key);
    try {
      obs::SpanScope region{obs::SpanKind::kRegion, "worker", 0, n};
      fn(0);
    } catch (...) {
      errors[0] = std::current_exception();
    }
  }
  sched::coop_join(join_key);  // cooperative wait; real joins are instant
  join_all(workers);
  analyze::on_sync_acquire(join_key);
}

void rethrow_first(const std::vector<std::exception_ptr>& errors) {
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace

void fork_join(int n, const std::function<void(int)>& fn) {
  if (n <= 0) throw UsageError("fork_join: thread count must be positive");
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(n));
  run_all(n, 0, fn, errors);
  rethrow_first(errors);
}

void fork_join_inline(int n, const std::function<void(int)>& fn) {
  if (n <= 0) throw UsageError("fork_join_inline: thread count must be positive");
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(n));
  run_all(n, 1, fn, errors);
  rethrow_first(errors);
}

}  // namespace pml::thread
