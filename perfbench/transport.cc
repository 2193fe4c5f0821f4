#include "transport.h"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <thread>

extern char** environ;

namespace perfbench {

namespace {

class TimedSelector final : public core::PairSelector {
 public:
  TimedSelector(std::unique_ptr<core::PairSelector> inner, DurationLog* log)
      : inner_(std::move(inner)), log_(log) {}

  util::Status SelectPairs(int t, std::vector<core::ScoredPair>* out) override {
    const Clock::time_point start = Clock::now();
    util::Status status = inner_->SelectPairs(t, out);
    log_->Add(MillisBetween(start, Clock::now()));
    return status;
  }

  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<core::PairSelector> inner_;
  DurationLog* log_;
};

}  // namespace

std::function<std::unique_ptr<core::PairSelector>(engine::RankingEngine&)>
TimedSelectorFactory(core::SelectorKind kind, DurationLog* log) {
  return [kind, log](engine::RankingEngine& engine) {
    return std::unique_ptr<core::PairSelector>(
        std::make_unique<TimedSelector>(engine.MakeSelector(kind), log));
  };
}

// ---------------------------------------------------------------------------
// ServerProcess

util::StatusOr<std::unique_ptr<ServerProcess>> ServerProcess::Spawn(
    const std::string& binary, const std::vector<std::string>& args,
    const std::string& stderr_path, serve::WireFormat wire) {
  int in_pipe[2];
  int out_pipe[2];
  if (pipe2(in_pipe, O_CLOEXEC) != 0) {
    return util::Status::Internal(std::string("pipe: ") + std::strerror(errno));
  }
  if (pipe2(out_pipe, O_CLOEXEC) != 0) {
    close(in_pipe[0]);
    close(in_pipe[1]);
    return util::Status::Internal(std::string("pipe: ") + std::strerror(errno));
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, in_pipe[0], 0);
  posix_spawn_file_actions_adddup2(&actions, out_pipe[1], 1);
  posix_spawn_file_actions_addopen(&actions, 2, stderr_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(binary.c_str()));
  for (const std::string& arg : args) {
    argv.push_back(const_cast<char*>(arg.c_str()));
  }
  argv.push_back(nullptr);
  pid_t pid = -1;
  const int rc = posix_spawn(&pid, binary.c_str(), &actions, nullptr,
                             argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(in_pipe[0]);
  close(out_pipe[1]);
  if (rc != 0) {
    close(in_pipe[1]);
    close(out_pipe[0]);
    return util::Status::Internal("spawn " + binary + ": " +
                                  std::strerror(rc));
  }
  return std::unique_ptr<ServerProcess>(
      new ServerProcess(pid, in_pipe[1], out_pipe[0], wire));
}

ServerProcess::ServerProcess(pid_t pid, int in_fd, int out_fd,
                             serve::WireFormat wire)
    : pid_(pid),
      in_fd_(in_fd),
      out_fd_(out_fd),
      codec_(serve::CodecFor(wire)) {}

ServerProcess::~ServerProcess() {
  CloseInput();
  if (out_fd_ >= 0) close(out_fd_);
  out_fd_ = -1;
  if (exited_) return;
  // The server exits on EOF once it has drained; give it a moment, then
  // make sure no child outlives the benchmark.
  for (int i = 0; i < 500; ++i) {
    int status = 0;
    if (waitpid(pid_, &status, WNOHANG) == pid_) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  kill(pid_, SIGKILL);
  waitpid(pid_, nullptr, 0);
}

void ServerProcess::Write(std::string_view bytes) {
  while (!bytes.empty() && in_fd_ >= 0) {
    const ssize_t n = write(in_fd_, bytes.data(), bytes.size());
    if (n < 0) {
      if (errno == EINTR) continue;
      return;  // the server is gone; Read reports the end of stream
    }
    bytes.remove_prefix(static_cast<size_t>(n));
  }
}

bool ServerProcess::Read(std::string* frame, Clock::time_point* at) {
  while (ready_.empty()) {
    if (out_fd_ < 0) return false;
    char chunk[64 * 1024];
    const ssize_t n = read(out_fd_, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    const Clock::time_point now = Clock::now();
    if (n <= 0) {
      close(out_fd_);
      out_fd_ = -1;
      return false;
    }
    buffer_.append(chunk, static_cast<size_t>(n));
    size_t offset = 0;
    for (;;) {
      util::StatusOr<serve::FrameSplit> split =
          codec_.SplitFrame(std::string_view(buffer_).substr(offset));
      if (!split.ok()) return false;
      if (!split->complete) break;
      ready_.emplace_back(std::string(split->frame), now);
      offset += split->consumed;
    }
    buffer_.erase(0, offset);
  }
  *frame = std::move(ready_.front().first);
  *at = ready_.front().second;
  ready_.pop_front();
  return true;
}

void ServerProcess::CloseInput() {
  if (in_fd_ >= 0) close(in_fd_);
  in_fd_ = -1;
}

double ServerProcess::PeakRssMb() const {
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

int ServerProcess::Wait() {
  if (!exited_) {
    int status = 0;
    while (waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
    exited_ = true;
    exit_status_ = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }
  return exit_status_;
}

// ---------------------------------------------------------------------------
// TracedServer

TracedServer::TracedServer(const model::Database& db,
                           const serve::Runtime::Options& options,
                           serve::WireFormat wire)
    : codec_(serve::CodecFor(wire)), runtime_(db, options) {}

TracedServer::~TracedServer() {
  // Done callbacks lock mu_; drain them before any member goes away.
  runtime_.Shutdown();
}

void TracedServer::Write(std::string_view bytes) {
  size_t offset = 0;
  for (;;) {
    util::StatusOr<serve::FrameSplit> split =
        codec_.SplitFrame(bytes.substr(offset));
    if (!split.ok() || !split->complete) return;
    offset += split->consumed;

    RequestSpans spans;
    spans.decode_start = Clock::now();
    serve::Request request;
    const util::Status decoded = codec_.DecodeRequest(split->frame, &request);
    spans.decode_end = Clock::now();
    spans.op = request.op;
    spans.session = request.session;
    uint64_t ticket = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      ticket = spans_.size();
      spans_.push_back(spans);
    }
    if (!decoded.ok()) {
      std::string frame =
          codec_.EncodeResponse(serve::ErrorResponse(request.id, decoded));
      {
        std::lock_guard<std::mutex> lock(mu_);
        RequestSpans& s = spans_[ticket];
        s.submitted = s.done = s.decode_end;
        s.encoded = Clock::now();
        s.response_bytes = frame.size();
      }
      Complete(ticket, std::move(frame));
      continue;
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      spans_[ticket].submitted = Clock::now();
    }
    runtime_.Submit(std::move(request), [this,
                                         ticket](serve::Response response) {
      const Clock::time_point done = Clock::now();
      std::string frame = codec_.EncodeResponse(response);
      const Clock::time_point encoded = Clock::now();
      {
        std::lock_guard<std::mutex> lock(mu_);
        RequestSpans& s = spans_[ticket];
        s.done = done;
        s.encoded = encoded;
        s.response_bytes = frame.size();
        if (const auto* created =
                std::get_if<serve::Response::Created>(&response.payload)) {
          s.session = created->session;
        }
      }
      Complete(ticket, std::move(frame));
    });
  }
}

void TracedServer::Complete(uint64_t ticket, std::string frame) {
  // Hand out the frame body, as ServerProcess::Read does.
  const util::StatusOr<serve::FrameSplit> split = codec_.SplitFrame(frame);
  if (split.ok() && split->complete) frame = std::string(split->frame);
  std::lock_guard<std::mutex> lock(mu_);
  pending_.emplace(ticket, std::move(frame));
  while (!pending_.empty() && pending_.begin()->first == next_release_) {
    out_.emplace_back(std::move(pending_.begin()->second), Clock::now());
    pending_.erase(pending_.begin());
    ++next_release_;
  }
  cv_.notify_all();
}

bool TracedServer::Read(std::string* frame, Clock::time_point* at) {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return !out_.empty() || closed_; });
  if (out_.empty()) return false;
  *frame = std::move(out_.front().first);
  *at = out_.front().second;
  out_.pop_front();
  return true;
}

void TracedServer::CloseInput() {
  runtime_.Shutdown();  // every admitted request answers first
  std::lock_guard<std::mutex> lock(mu_);
  closed_ = true;
  cv_.notify_all();
}

std::vector<RequestSpans> TracedServer::Spans() const {
  std::vector<RequestSpans> spans;
  {
    std::lock_guard<std::mutex> lock(mu_);
    spans = spans_;
  }
  // OrderedWriter semantics: a response leaves once it is complete and
  // every earlier one has left.
  Clock::time_point previous{};
  for (RequestSpans& s : spans) {
    s.released = std::max(s.encoded, previous);
    previous = s.released;
  }
  return spans;
}

}  // namespace perfbench
