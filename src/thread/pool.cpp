#include "thread/pool.hpp"

#include <cstdint>
#include <utility>

#include "analyze/analyze.hpp"
#include "obs/obs.hpp"
#include "thread/adaptive_wait.hpp"

namespace pml::thread {

Pool::Pool(int workers) {
  if (workers <= 0) throw UsageError("Pool: worker count must be positive");
  executed_.assign(static_cast<std::size_t>(workers), 0);
  group_.emplace(workers, workers);
  for (int id = 0; id < workers; ++id) {
    group_->start(id, [this, id] { worker_body(id); });
  }
}

Pool::~Pool() { shutdown(); }

void Pool::submit(Task task) {
  if (!task) throw UsageError("Pool::submit: empty task");
  if (analyze::active()) {
    // Dispatch edge: the master's pre-submit writes happen-before the task
    // body, whichever worker picks it up.
    const std::uint64_t publish = analyze::on_task_publish();
    task = [publish, body = std::move(task)](int worker) {
      analyze::on_task_start(publish);
      body(worker);
    };
  }
  {
    std::lock_guard lock(mu_);
    if (stopping_) throw RuntimeFault("Pool::submit after shutdown");
    queue_.push_back(std::move(task));
  }
  notify_one(work_ready_, &work_ready_);
}

void Pool::wait_idle() {
  std::unique_lock lock(mu_);
  wait_on(idle_, lock, &idle_, [this] { return queue_.empty() && active_ == 0; });
  // Join edge: every completed task's writes happen-before the master's
  // post-quiescence reads.
  analyze::on_sync_acquire(this);
  if (first_error_) {
    std::exception_ptr error;
    std::swap(error, first_error_);
    lock.unlock();
    std::rethrow_exception(error);
  }
}

void Pool::shutdown() {
  {
    std::lock_guard lock(mu_);
    if (stopping_) return;
    stopping_ = true;
  }
  notify_all(work_ready_, &work_ready_);
  group_->join();
}

std::vector<long> Pool::tasks_per_worker() const {
  std::lock_guard lock(mu_);
  return executed_;
}

void Pool::worker_body(int id) {
  for (;;) {
    Task task;
    {
      std::unique_lock lock(mu_);
      wait_on(work_ready_, lock, &work_ready_,
              [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ with drained queue
      task = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
    }
    std::exception_ptr error;
    try {
      obs::SpanScope span{obs::SpanKind::kTask, "pool-task", id};
      obs::count(obs::Counter::kTasksRun);
      task(id);
    } catch (...) {
      error = std::current_exception();
    }
    {
      std::lock_guard lock(mu_);
      analyze::on_sync_release(this);
      ++executed_[static_cast<std::size_t>(id)];
      --active_;
      if (error && !first_error_) first_error_ = error;
      if (queue_.empty() && active_ == 0) notify_all(idle_, &idle_);
    }
  }
}

}  // namespace pml::thread
