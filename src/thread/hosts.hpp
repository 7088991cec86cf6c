#pragma once

/// \file hosts.hpp
/// \brief Persistent host threads: the one place per-job threads come from.
///
/// A patternlet run is short, so creating and joining its OS threads was
/// most of its fixed cost. Every per-job thread — mp ranks, fork_join and
/// smp team members, `Thread`, and the `Pool`/`StealingPool` workers —
/// instead runs its task on a *host*: an OS thread from one process-wide
/// pool that parks between tasks. `HostThread` keeps std::jthread's
/// contract (start on construction, join on destruction, an escaping
/// exception ends the program), with three rules on top:
///
/// - An idle host parks at once on its condition variable; it never spins,
///   so it takes no core from the job that runs next.
/// - A host stays with its `HostThread` until that handle is joined, the
///   way an OS thread id stays taken until `join`: two unjoined handles
///   never share a host, even when one task finished long ago.
/// - A task starts with fresh per-thread tooling state (sched lane, fault
///   lane counters, obs lane, analyze identity), as on a new thread.
///
/// The pool is never destroyed. Hosts still parked at exit end with the
/// process and run no `thread_local` destructors, which could otherwise
/// reach statics that exit has already torn down.

#include <chrono>
#include <functional>
#include <vector>

namespace pml::thread {

namespace detail {
struct Host;
}  // namespace detail

/// A task running on a pooled host thread; std::jthread without stop tokens.
class HostThread {
 public:
  HostThread() noexcept = default;

  /// Starts \p task on an idle host, or on a new one when none is idle.
  explicit HostThread(std::function<void()> task);

  HostThread(HostThread&& other) noexcept : host_(other.host_) {
    other.host_ = nullptr;
  }
  /// Joins the current task first, as std::jthread does.
  HostThread& operator=(HostThread&& other) noexcept;

  HostThread(const HostThread&) = delete;
  HostThread& operator=(const HostThread&) = delete;

  ~HostThread() { join(); }

  /// True from start until join().
  bool joinable() const noexcept { return host_ != nullptr; }

  /// Waits up to \p timeout for the task to finish; true once it has. The
  /// host stays held until join(). Call only while joinable().
  bool wait_for(std::chrono::milliseconds timeout);

  /// Waits for the task, then returns its host to the pool. Idempotent.
  void join();

 private:
  detail::Host* host_ = nullptr;
};

/// Joins every task of \p group, the last one first, and leaves it empty.
/// The pool hands out the most recently idled host first, so the next group
/// of the same size gets these hosts back in order: its task i runs on the
/// host, and usually the CPU and caches, that ran task i before.
void join_all(std::vector<HostThread>& group);

}  // namespace pml::thread
