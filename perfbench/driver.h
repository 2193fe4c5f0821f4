#ifndef PERFBENCH_DRIVER_H_
#define PERFBENCH_DRIVER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "check.h"
#include "transport.h"
#include "workload.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string server_binary;  // the built tools/ptk_server
  std::string work_dir;       // where catalogs and journals go
};

/// Runs one workload end to end and prints, as the last line of stdout,
/// {"correct", "attempted", "failed", "metrics"}; the line before it holds
/// the workload parameters, host facts, sample counts, validity guards
/// and the per-layer counts of the run. Returns the process exit code.
int RunBenchmark(const RunOptions& options);

/// What one client run against a server produced.
struct ClientRun {
  std::vector<SessionLog> sessions;
  int64_t sent = 0;
  bool stream_ok = true;  // every response arrived and decoded
  Clock::time_point window_start{};
  Clock::time_point window_end{};
  int64_t session_bytes = 0;  // metrics op at the end of the measured phase
  // Open loop only: how late the generator wrote, and the requests still
  // unanswered when the last one was written.
  double max_lateness_ms = 0.0;
  double p99_lateness_ms = 0.0;
  int64_t backlog_at_end = 0;
  double drain_ms = 0.0;
};

/// Lockstep closed loop: spec.clients sessions advance one script step
/// per round; a round writes every client's next request, then reads all
/// their responses. Every session orients its answers by its own world
/// (WorldValues of `seed`, by creation order). One whole session per
/// client runs unmeasured first (with a metrics request before its
/// close); then whole sessions run until `seconds` have passed.
ClientRun RunClosedLoop(Endpoint& endpoint, const WorkloadSpec& spec,
                        const model::Database& db, uint64_t seed,
                        double seconds);

/// Open loop: one generator thread writes each scheduled request at its
/// due time while a reader thread collects the responses; latency counts
/// from the due time.
ClientRun RunOpenLoop(Endpoint& endpoint, const WorkloadSpec& spec,
                      const std::vector<Scheduled>& schedule);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_H_
