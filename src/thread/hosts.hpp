#pragma once

/// \file hosts.hpp
/// \brief Persistent host threads and the one way to start tasks on them.
///
/// A patternlet run is short, so creating and joining its OS threads was
/// most of its fixed cost. Every per-job thread — mp ranks, fork_join and
/// smp team members, `Thread`, and the `Pool`/`StealingPool` workers —
/// instead runs its task on a *host*: an OS thread from one process-wide
/// pool that parks between tasks. A `TaskGroup` is the only way to start
/// one, and it keeps std::jthread's contract (start on start(), join on
/// join() or destruction, an escaping exception ends the program), with
/// three rules on top:
///
/// - An idle host parks at once on its condition variable; it never spins,
///   so it takes no core from the job that runs next.
/// - A host stays with its group until the group is joined, the way an OS
///   thread id stays taken until `join`: two tasks of unjoined groups never
///   share a host, even when one finished long ago.
/// - A task starts with fresh per-thread tooling state (sched lane, fault
///   lane counters, obs lane, analyze identity), as on a new thread.
///
/// The pool is never destroyed. Hosts still parked at exit end with the
/// process and run no `thread_local` destructors, which could otherwise
/// reach statics that exit has already torn down.

#include <chrono>
#include <cstddef>
#include <functional>
#include <vector>

namespace pml::thread {

namespace detail {
struct Host;
}  // namespace detail

/// Tasks started together and joined together: the fork and join of every
/// substrate, and the one place a task meets the tooling at its edges.
/// Construction releases the analyzer's fork key and registers the tasks
/// as verifier lanes; each task runs as coop_lane_begin(group, id),
/// acquire(fork), fn, release(join), coop_lane_end; join() ends with
/// acquire(join). A CoopAbort escaping fn ends its task quietly; any other
/// exception ends the program. The group's address is its verifier token
/// and analyzer key, so it never moves.
class TaskGroup {
 public:
  /// \p tasks tasks with ids in [0, \p ids); \p ids exceeds \p tasks when
  /// the caller runs the other ids itself.
  TaskGroup(int ids, int tasks);
  ~TaskGroup() { join(); }

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Starts \p fn as task \p id on an idle host, or on a new one.
  void start(int id, std::function<void()> fn);

  /// Waits for the tasks in start order, up to \p timeout for each one
  /// still running: false at the first still running after its wait, true
  /// once all have finished. The hosts stay held until join().
  bool wait_for(std::chrono::milliseconds timeout);

  /// Waits for every task and returns the hosts to the pool, the last one
  /// first. The pool hands out the most recently idled host first, so the
  /// next group of the same size gets these hosts back in order: its task
  /// i runs on the host, and usually the CPU and caches, that ran task i
  /// before. Idempotent: a second call finds nothing left to wait for.
  void join();

 private:
  std::vector<detail::Host*> hosts_;
  std::size_t finished_ = 0;  ///< Leading hosts wait_for() saw finish.
};

}  // namespace pml::thread
