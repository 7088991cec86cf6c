#include "thread/thread.hpp"

#include <cstdint>
#include <exception>
#include <vector>

#include "obs/obs.hpp"
#include "sched/sched.hpp"

namespace pml::thread {

namespace {

/// Runs fn(0) .. fn(n-1) as one team: ids from \p first up on a group's
/// hosts, id 0 on the caller when \p first is 1. Rethrows the first error
/// by id once every member has finished.
void run_team(int n, int first, const std::function<void(int)>& fn) {
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(n));
  const auto member = [&](int id) {
    try {
      // One region span per team thread, covering its whole body.
      obs::SpanScope region{obs::SpanKind::kRegion, "worker", id, n};
      fn(id);
    } catch (...) {
      errors[static_cast<std::size_t>(id)] = std::current_exception();
    }
  };
  TaskGroup team(n, n - first);
  for (int id = first; id < n; ++id) {
    team.start(id, [&, id] {
      // Bind the perturbation lane to the team-relative id so a chaos seed
      // replays the same per-thread schedule across regions and runs.
      sched::bind_lane(static_cast<std::uint32_t>(id));
      member(id);
    });
  }
  if (first == 1) {
    const sched::LaneScope lane(0);
    member(0);
  }
  team.join();
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace

void fork_join(int n, const std::function<void(int)>& fn) {
  if (n <= 0) throw UsageError("fork_join: thread count must be positive");
  run_team(n, 0, fn);
}

void fork_join_inline(int n, const std::function<void(int)>& fn) {
  if (n <= 0) throw UsageError("fork_join_inline: thread count must be positive");
  run_team(n, 1, fn);
}

}  // namespace pml::thread
