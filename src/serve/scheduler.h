#ifndef PTK_SERVE_SCHEDULER_H_
#define PTK_SERVE_SCHEDULER_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "util/cancellation.h"

namespace ptk::serve {

/// The executor of one serving shard: `workers` threads draining one FIFO
/// of tasks, plus a deadline watchdog that fires cancel sources from
/// outside the worker that polls them.
///
/// Admission, per-session order and grouping all belong to the runtime in
/// front of it (serve/runtime.h): the runtime posts a task only for a
/// group whose session predecessors have finished, so the executor keeps
/// no per-session state and never refuses work.
///
/// Watchdog: Arm(at, source) fires `source` once `at` passes, unless
/// Disarm ran first. Arm, Disarm and the firing all hold one mutex, so a
/// source is never fired after Disarm returned — a request that finished
/// in time can never be cancelled late.
///
/// Shutdown() (and the destructor) run every task already posted, then
/// join all threads.
class Scheduler {
 public:
  struct Options {
    /// Worker threads draining the task queue (clamped to >= 1).
    int workers = 2;
  };

  explicit Scheduler(const Options& options);
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Queues `task` behind every task posted before it; a free worker runs
  /// it. Must not be called after Shutdown().
  void Post(std::function<void()> task);

  /// Fires `source` at `at` unless Disarm(returned id) runs first. The
  /// shared_ptr keeps the source alive until then
  /// (SessionManager::CancelSourceFor).
  uint64_t Arm(std::chrono::steady_clock::time_point at,
               std::shared_ptr<util::CancelSource> source);
  void Disarm(uint64_t id);

  /// Runs the tasks already posted, then joins every thread. Idempotent.
  void Shutdown();

 private:
  void WorkerLoop();
  void WatchdogLoop();

  std::mutex mu_;  // guards everything below
  std::condition_variable work_cv_;      // workers: tasks_ / shutdown_
  std::condition_variable watchdog_cv_;  // watchdog: alarms_ / shutdown_
  std::deque<std::function<void()>> tasks_;
  struct Alarm {
    std::chrono::steady_clock::time_point at;
    std::shared_ptr<util::CancelSource> source;
  };
  // Keyed by Arm id; at most one alarm per executing request, so the
  // watchdog's per-wakeup min scan is over a handful of entries.
  std::map<uint64_t, Alarm> alarms_;
  uint64_t next_alarm_ = 1;
  bool shutdown_ = false;

  std::vector<std::thread> workers_;
  std::thread watchdog_;
};

}  // namespace ptk::serve

#endif  // PTK_SERVE_SCHEDULER_H_
