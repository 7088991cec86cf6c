#include "thread/hosts.hpp"

#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "analyze/analyze.hpp"
#include "fault/fault.hpp"
#include "obs/obs.hpp"
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

}  // namespace

HostThread::HostThread(std::function<void()> task) : host_(Hosts::instance().acquire()) {
  host_->start(std::move(task));
}

HostThread& HostThread::operator=(HostThread&& other) noexcept {
  if (this != &other) {
    join();
    host_ = std::exchange(other.host_, nullptr);
  }
  return *this;
}

bool HostThread::wait_for(std::chrono::milliseconds timeout) {
  std::unique_lock lock(host_->mu);
  return host_->cv.wait_for(lock, timeout, [this] { return !host_->running; });
}

void HostThread::join() {
  if (host_ == nullptr) return;
  {
    std::unique_lock lock(host_->mu);
    host_->cv.wait(lock, [this] { return !host_->running; });
  }
  Hosts::instance().release(std::exchange(host_, nullptr));
}

void join_all(std::vector<HostThread>& group) {
  while (!group.empty()) group.pop_back();
}

}  // namespace pml::thread
