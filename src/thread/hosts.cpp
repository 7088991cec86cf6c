#include "thread/hosts.hpp"

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "analyze/analyze.hpp"
#include "fault/fault.hpp"
#include "obs/obs.hpp"
#include "sched/coop.hpp"
#include "sched/sched.hpp"

namespace pml::thread {

namespace detail {

/// One pooled OS thread. At most one party waits on `cv` at a time: the
/// parked host while no task is assigned, or its joiner while one runs.
struct Host {
  std::mutex mu;
  std::condition_variable cv;
  std::function<void()> task;  ///< Assigned, not yet taken by the host.
  bool running = false;        ///< From start() until the task returned.
  std::thread os_thread;

  void start(std::function<void()> fn) {
    {
      std::lock_guard lock(mu);
      task = std::move(fn);
      running = true;
    }
    cv.notify_one();
  }

  /// Waits up to \p timeout for the task to return; true once it has.
  bool wait_for(std::chrono::milliseconds timeout) {
    std::unique_lock lock(mu);
    return cv.wait_for(lock, timeout, [this] { return !running; });
  }

  void wait() {
    std::unique_lock lock(mu);
    cv.wait(lock, [this] { return !running; });
  }

  [[noreturn]] void serve() {
    std::unique_lock lock(mu);
    for (;;) {
      cv.wait(lock, [this] { return static_cast<bool>(task); });
      std::function<void()> fn = std::exchange(task, nullptr);
      lock.unlock();
      sched::reset_thread();
      fault::reset_thread();
      obs::reset_thread();
      analyze::reset_thread();
      fn();
      fn = nullptr;  // captures die before the joiner can return
      lock.lock();
      running = false;
      cv.notify_one();
    }
  }
};

}  // namespace detail

namespace {

using detail::Host;

/// The process-wide pool: every host ever created, and the idle ones.
class Hosts {
 public:
  static Hosts& instance() {
    static Hosts* const hosts = new Hosts;  // never destroyed (hosts.hpp)
    return *hosts;
  }

  /// The most recently idled host (its stack and caches are warm), or a
  /// new one.
  Host* acquire() {
    {
      std::lock_guard lock(mu_);
      if (!idle_.empty()) {
        Host* host = idle_.back();
        idle_.pop_back();
        return host;
      }
    }
    auto host = std::make_unique<Host>();
    Host* raw = host.get();
    raw->os_thread = std::thread([raw] { raw->serve(); });
    std::lock_guard lock(mu_);
    all_.push_back(std::move(host));
    return raw;
  }

  void release(Host* host) {
    std::lock_guard lock(mu_);
    idle_.push_back(host);
  }

 private:
  std::mutex mu_;
  std::vector<std::unique_ptr<Host>> all_;
  std::vector<Host*> idle_;
};

/// The analyzer's fork key for \p group; its join key is the group itself.
/// Distinct keys, because with one a task that finishes before a sibling
/// starts (the rule, not the exception, on one core) would release its
/// history into the very key the sibling fork-acquires: a task-to-task
/// edge no primitive implies, masking every race the serial schedule did
/// not overlap. One byte past the group is unique per group and, being
/// odd, disjoint from the analyzer's even real-address sync keys.
const void* fork_key(const TaskGroup* group) {
  return reinterpret_cast<const char*>(group) + 1;
}

}  // namespace

TaskGroup::TaskGroup(int ids, int tasks) {
  hosts_.reserve(static_cast<std::size_t>(tasks));
  analyze::on_sync_release(fork_key(this));
  // Every task registers with the verifier before any starts: tasks are
  // deterministic slots (token base + id), and no scheduling decision is
  // taken while a registration is pending, which is what makes replay exact.
  sched::coop_spawned(this, static_cast<std::uint32_t>(ids),
                      static_cast<std::uint32_t>(tasks));
}

void TaskGroup::start(int id, std::function<void()> fn) {
  Host* host = Hosts::instance().acquire();
  hosts_.push_back(host);
  host->start([this, id, fn = std::move(fn)] {
    sched::coop_lane_begin(this, static_cast<std::uint32_t>(id));
    analyze::on_sync_acquire(fork_key(this));
    try {
      fn();
    } catch (const sched::CoopAbort&) {
      // The verifier tore this execution down; unwind quietly.
    }
    analyze::on_sync_release(this);
    sched::coop_lane_end(this);
  });
}

bool TaskGroup::wait_for(std::chrono::milliseconds timeout) {
  for (; finished_ < hosts_.size(); ++finished_) {
    if (!hosts_[finished_]->wait_for(timeout)) return false;
  }
  return true;
}

void TaskGroup::join() {
  sched::coop_join(this);  // cooperative wait; the real waits are instant
  while (!hosts_.empty()) {
    Host* host = hosts_.back();
    hosts_.pop_back();
    host->wait();
    Hosts::instance().release(host);
  }
  analyze::on_sync_acquire(this);
}

}  // namespace pml::thread
