#include "thread/stealing.hpp"

#include <chrono>
#include <cstdint>
#include <thread>
#include <utility>

#include "analyze/analyze.hpp"
#include "obs/obs.hpp"
#include "sched/sched.hpp"
#include "thread/adaptive_wait.hpp"

namespace pml::thread {

namespace {

/// Worker identity of the current thread: which pool, which id.
struct WorkerIdentity {
  const StealingPool* pool = nullptr;
  int id = -1;
};

WorkerIdentity& identity() {
  thread_local WorkerIdentity tl;
  return tl;
}

}  // namespace

StealingPool::StealingPool(int workers) {
  if (workers <= 0) throw UsageError("StealingPool: worker count must be positive");
  deques_.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i) deques_.push_back(std::make_unique<WorkDeque>());
  executed_.assign(static_cast<std::size_t>(workers), 0);
  steals_.assign(static_cast<std::size_t>(workers), 0);
  group_.emplace(workers, workers);
  for (int id = 0; id < workers; ++id) {
    group_->start(id, [this, id] { worker_loop(id); });
  }
}

StealingPool::~StealingPool() { shutdown(); }

int StealingPool::calling_worker() const {
  const WorkerIdentity& who = identity();
  return who.pool == this ? who.id : -1;
}

void StealingPool::submit(Task task) {
  if (!task) throw UsageError("StealingPool::submit: empty task");
  if (stopping_.load(std::memory_order_acquire)) {
    throw RuntimeFault("StealingPool::submit after shutdown");
  }
  const int me = calling_worker();
  // Inside a worker: push to its own deque (depth-first, steal-friendly).
  // Outside: deal round-robin so external bursts spread out.
  const int dest =
      me >= 0 ? me
              : static_cast<int>(next_victim_.fetch_add(1) %
                                 static_cast<long>(deques_.size()));
  if (analyze::active()) {
    // Dispatch edge: the submitter's prior writes happen-before the task
    // body, no matter which worker runs or steals it.
    const std::uint64_t publish = analyze::on_task_publish();
    task = [publish, body = std::move(task)] {
      analyze::on_task_start(publish);
      body();
    };
  }
  sched::point(sched::Point::kTaskDispatch);
  in_flight_.fetch_add(1, std::memory_order_acq_rel);
  deques_[static_cast<std::size_t>(dest)]->push_bottom(std::move(task));
  // Epoch first, then notify: a napper woken here re-checks the epoch under
  // its lock and sees the new work; a worker *between* its failed sweep and
  // its nap sees the flipped epoch in the nap predicate and never sleeps.
  work_epoch_.fetch_add(1, std::memory_order_release);
  notify_all(work_cv_, &work_cv_);
}

std::optional<StealingPool::Task> StealingPool::find_work(int id) {
  // Own deque first (bottom: most recent, cache-warm) ...
  if (auto t = deques_[static_cast<std::size_t>(id)]->pop_bottom()) return t;
  // ... then try to steal from each victim once, starting after myself.
  const int n = static_cast<int>(deques_.size());
  for (int k = 1; k < n; ++k) {
    const int victim = (id + k) % n;
    if (auto t = deques_[static_cast<std::size_t>(victim)]->steal_top()) {
      obs::count(obs::Counter::kSteals);
      std::lock_guard lock(mu_);
      ++steals_[static_cast<std::size_t>(id)];
      return t;
    }
  }
  return std::nullopt;
}

void StealingPool::worker_loop(int id) {
  identity() = WorkerIdentity{this, id};
  // Cleared however the body ends: the host outlives this pool, and a later
  // pool at the same address must not mistake it for one of its workers.
  struct Clear {
    ~Clear() { identity() = WorkerIdentity{}; }
  } clear;
  worker_body(id);
}

void StealingPool::worker_body(int id) {
  for (;;) {
    // Snapshot before the sweep: any submit after this point flips the
    // epoch and keeps us from napping on work we failed to see.
    const std::uint64_t epoch = work_epoch_.load(std::memory_order_acquire);
    if (auto task = find_work(id)) {
      std::exception_ptr error;
      try {
        obs::SpanScope span{obs::SpanKind::kTask, "stolen-or-own-task", id};
        obs::count(obs::Counter::kTasksRun);
        (*task)();
      } catch (...) {
        error = std::current_exception();
      }
      {
        // Decrement and notify under mu_ so wait_idle cannot miss the
        // transition to quiescence.
        std::lock_guard lock(mu_);
        analyze::on_sync_release(this);
        ++executed_[static_cast<std::size_t>(id)];
        if (error && !first_error_) first_error_ = error;
        if (in_flight_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
          notify_all(idle_cv_, &idle_cv_);
        }
      }
      // Busy-worker handoff: if this deque still holds work while siblings
      // idle, wake them and cede the core once. On a machine with fewer
      // cores than workers a task-spawning worker otherwise drains its own
      // deque to completion before any thief is ever scheduled — the
      // "imbalanced load never gets stolen" starvation.
      if (deques_[static_cast<std::size_t>(id)]->size() > 0) {
        if (nappers_.load(std::memory_order_relaxed) > 0) {
          notify_all(work_cv_, &work_cv_);
        }
        std::this_thread::yield();
      }
      continue;
    }
    if (stopping_.load(std::memory_order_acquire)) break;
    // Nothing to run or steal: nap until new work is submitted or, as a
    // backstop against steals (which do not bump the epoch), a short
    // timeout. The predicate re-checks the epoch under the lock, so a
    // submit landing between our sweep and this wait is never missed.
    std::unique_lock lock(nap_mu_);
    nappers_.fetch_add(1, std::memory_order_relaxed);
    (void)wait_on_for(work_cv_, lock, &work_cv_, std::chrono::microseconds(200), [&] {
      return work_epoch_.load(std::memory_order_acquire) != epoch ||
             stopping_.load(std::memory_order_acquire);
    });
    nappers_.fetch_sub(1, std::memory_order_relaxed);
  }
}

void StealingPool::wait_idle() {
  std::unique_lock lock(mu_);
  wait_on(idle_cv_, lock, &idle_cv_,
          [this] { return in_flight_.load(std::memory_order_acquire) == 0; });
  // Join edge: completed tasks' writes happen-before post-quiescence reads.
  analyze::on_sync_acquire(this);
  if (first_error_) {
    std::exception_ptr error;
    std::swap(error, first_error_);
    lock.unlock();
    std::rethrow_exception(error);
  }
}

void StealingPool::shutdown() {
  bool expected = false;
  if (!stopping_.compare_exchange_strong(expected, true)) return;
  notify_all(work_cv_, &work_cv_);
  group_->join();  // workers drain remaining work before exiting
}

std::vector<long> StealingPool::executed_per_worker() const {
  std::lock_guard lock(mu_);
  return executed_;
}

std::vector<long> StealingPool::steals_per_worker() const {
  std::lock_guard lock(mu_);
  return steals_;
}

}  // namespace pml::thread
