#ifndef PERFBENCH_TRANSPORT_H_
#define PERFBENCH_TRANSPORT_H_

#include <sys/types.h>

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/selector.h"
#include "serve/codec.h"
#include "serve/runtime.h"
#include "workload.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MillisBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// A request/response byte stream to one server: frames go in, response
/// frames come out in request order (ptk_server's contract). Write may be
/// called from one thread while Read runs on another.
class Endpoint {
 public:
  virtual ~Endpoint() = default;
  /// Writes whole request frames (framing included).
  virtual void Write(std::string_view bytes) = 0;
  /// The next response frame body and when it became readable; false at
  /// end of stream.
  virtual bool Read(std::string* frame, Clock::time_point* at) = 0;
  /// Ends the request stream; the server answers what it accepted.
  virtual void CloseInput() = 0;
};

/// The real tools/ptk_server as a child process: stdin and stdout are
/// pipes, stderr goes to a file (where --metrics writes its export).
class ServerProcess final : public Endpoint {
 public:
  /// Spawns `binary args...`. Fails when the process cannot start.
  static util::StatusOr<std::unique_ptr<ServerProcess>> Spawn(
      const std::string& binary, const std::vector<std::string>& args,
      const std::string& stderr_path, serve::WireFormat wire);

  /// Closes the pipes, kills the child if it is still running, and waits
  /// for it.
  ~ServerProcess() override;

  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  void Write(std::string_view bytes) override;
  bool Read(std::string* frame, Clock::time_point* at) override;
  void CloseInput() override;

  /// The child's peak resident set (VmHWM), in MiB; 0 when unreadable.
  double PeakRssMb() const;

  /// Waits for the child to exit; its exit status (-1 when killed).
  int Wait();

 private:
  ServerProcess(pid_t pid, int in_fd, int out_fd, serve::WireFormat wire);

  pid_t pid_ = -1;
  int in_fd_ = -1;
  int out_fd_ = -1;
  const serve::Codec& codec_;
  std::string buffer_;
  std::deque<std::pair<std::string, Clock::time_point>> ready_;
  bool exited_ = false;
  int exit_status_ = -1;
};

/// One request's spans through the in-process stack. Times are absolute
/// steady-clock points; the release time is recomputed from completion
/// times the way ptk_server's OrderedWriter releases responses.
struct RequestSpans {
  serve::Op op = serve::Op::kMetrics;
  std::string session;  // as submitted (runtime-assigned for creates)
  Clock::time_point decode_start, decode_end;
  Clock::time_point submitted, done;  // Runtime::Submit -> done callback
  Clock::time_point encoded;          // EncodeResponse finished
  Clock::time_point released;         // in-order release
  size_t response_bytes = 0;
};

/// Thread-safe list of durations, in milliseconds.
class DurationLog {
 public:
  void Add(double ms) {
    std::lock_guard<std::mutex> lock(mu_);
    values_.push_back(ms);
  }
  std::vector<double> values() const {
    std::lock_guard<std::mutex> lock(mu_);
    return values_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<double> values_;
};

/// Wraps RankingEngine::MakeSelector into a selector factory that times
/// every PairSelector::SelectPairs call into `log`.
std::function<std::unique_ptr<core::PairSelector>(engine::RankingEngine&)>
TimedSelectorFactory(core::SelectorKind kind, DurationLog* log);

/// The stack ptk_server builds — serve::CodecFor(wire) in front of a
/// serve::Runtime with the same options — run in this process, with spans
/// around Codec::DecodeRequest, Runtime::Submit -> done and
/// Codec::EncodeResponse. Write plays ptk_server's read loop (decode and
/// submit on the caller's thread); responses are released in order.
class TracedServer final : public Endpoint {
 public:
  TracedServer(const model::Database& db,
               const serve::Runtime::Options& options,
               serve::WireFormat wire);
  ~TracedServer() override;

  void Write(std::string_view bytes) override;
  bool Read(std::string* frame, Clock::time_point* at) override;
  void CloseInput() override;

  /// Every request's spans, in submission order, with release times
  /// recomputed. Valid after CloseInput.
  std::vector<RequestSpans> Spans() const;

 private:
  void Complete(uint64_t ticket, std::string frame);

  const serve::Codec& codec_;
  serve::Runtime runtime_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<RequestSpans> spans_;  // indexed by ticket
  std::map<uint64_t, std::string> pending_;
  uint64_t next_release_ = 0;
  std::deque<std::pair<std::string, Clock::time_point>> out_;
  bool closed_ = false;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRANSPORT_H_
