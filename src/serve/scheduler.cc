#include "serve/scheduler.h"

#include <algorithm>
#include <utility>

namespace ptk::serve {

Scheduler::Scheduler(const Options& options) {
  const int workers = std::max(1, options.workers);
  workers_.reserve(workers);
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  watchdog_ = std::thread([this] { WatchdogLoop(); });
}

Scheduler::~Scheduler() { Shutdown(); }

void Scheduler::Post(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    tasks_.push_back(std::move(task));
  }
  work_cv_.notify_one();
}

void Scheduler::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return shutdown_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // shut down and fully drained
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    task();
  }
}

uint64_t Scheduler::Arm(std::chrono::steady_clock::time_point at,
                        std::shared_ptr<util::CancelSource> source) {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t id = next_alarm_++;
  alarms_.emplace(id, Alarm{at, std::move(source)});
  watchdog_cv_.notify_one();
  return id;
}

void Scheduler::Disarm(uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  alarms_.erase(id);
}

void Scheduler::WatchdogLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!shutdown_) {
    if (alarms_.empty()) {
      watchdog_cv_.wait(lock);
      continue;
    }
    const auto next = std::min_element(
        alarms_.begin(), alarms_.end(),
        [](const auto& a, const auto& b) { return a.second.at < b.second.at; });
    if (std::chrono::steady_clock::now() < next->second.at) {
      // Woken early by a new alarm or shutdown; re-scan either way.
      watchdog_cv_.wait_until(lock, next->second.at);
      continue;
    }
    next->second.source->RequestCancel();
    alarms_.erase(next);
  }
}

void Scheduler::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) return;
    shutdown_ = true;
  }
  work_cv_.notify_all();
  watchdog_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
  watchdog_.join();
}

}  // namespace ptk::serve
