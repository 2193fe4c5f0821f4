// Serving frontend over stdin/stdout: a thin transport loop around the
// typed protocol core.
//
// Reads request frames from stdin in the selected wire format (--wire
// json | binary, see src/serve/codec.h), submits each decoded
// serve::Request to the sharded, coalescing serve::Runtime, and writes
// one response frame per request *in request order* — requests are
// pipelined through the per-shard executors (per-session order, queued
// posts merged and idle reads batched, per-request deadlines, admission
// shedding with retry_after_ms), and a reorder buffer flushes responses
// in submission order.
//
// Usage:
//   ptk_server <data.csv> [--wire json|binary] [--shards N] [--k N]
//              [--selector NAME] [--semantics NAME] [--order sensitive]
//              [--fanout N] [--workers N] [--queue N] [--max-sessions N]
//              [--update-working] [--metrics] [--persist-dir PATH]
//              [--no-fsync] [--snapshot-every N] [--recover]
//
// --workers, --queue and --max-sessions are per-shard budgets. Every
// numeric flag takes a whole positive integer; a malformed one exits 2
// with the usage line.
//
// The response stream is bit-identical across --shards and --workers
// values and, once decoded, across wire formats (see
// src/serve/runtime.h). With --metrics, the process-wide metrics registry
// (the ptk_serve_* families among them) is exported to stderr in
// Prometheus format at EOF.
//
// Durability: --persist-dir journals every session under PATH (write-ahead
// log per session, periodic snapshots, fsync-ordered acknowledgements);
// --recover replays those journals at startup — each session into the
// shard owning its id — rebuilding every session bit-identically to the
// pre-crash process before the first request is read. --no-fsync keeps
// the journal ordering but skips fsync (faster, survives process kills
// but not power loss).

#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <mutex>
#include <string>
#include <utility>

#include "data/csv.h"
#include "data/field_parse.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "serve/codec.h"
#include "serve/message.h"
#include "serve/runtime.h"
#include "util/status.h"
#include "util/statusor.h"

namespace {

// Flushes response frames in ticket (submission) order regardless of the
// order workers complete them. Frames arrive fully framed (JSON lines
// carry their '\n'; binary frames their length prefix).
class OrderedWriter {
 public:
  void Push(uint64_t ticket, std::string frame) {
    std::lock_guard<std::mutex> lock(mu_);
    pending_.emplace(ticket, std::move(frame));
    while (!pending_.empty() && pending_.begin()->first == next_) {
      const std::string& out = pending_.begin()->second;
      std::fwrite(out.data(), 1, out.size(), stdout);
      std::fflush(stdout);
      pending_.erase(pending_.begin());
      ++next_;
    }
  }

 private:
  std::mutex mu_;
  std::map<uint64_t, std::string> pending_;
  uint64_t next_ = 0;
};

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <data.csv> [--wire json|binary] [--shards N] "
               "[--k N] [--selector NAME] "
               "[--semantics entropy|expected_rank|ukranks] "
               "[--order sensitive] [--fanout N] [--workers N] [--queue N] "
               "[--max-sessions N] [--update-working] [--metrics] "
               "[--persist-dir PATH] [--no-fsync] [--snapshot-every N] "
               "[--recover]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage(argv[0]);
  const char* csv_path = nullptr;
  ptk::serve::Runtime::Options options;
  ptk::serve::WireFormat wire = ptk::serve::WireFormat::kJsonLines;
  bool dump_metrics = false;
  bool recover = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    // The flag's value as a whole positive int: "2x", "1e3" and " " are
    // errors, not 2, 1 and 0.
    auto next_int = [&](int* out) {
      int64_t value = 0;
      if (i + 1 >= argc ||
          !ptk::data::internal::ParseInt64Field(argv[++i], &value) ||
          value <= 0 || value > std::numeric_limits<int>::max()) {
        return false;
      }
      *out = static_cast<int>(value);
      return true;
    };
    if (arg == "--wire") {
      if (i + 1 >= argc) return Usage(argv[0]);
      const auto format = ptk::serve::WireFormatFromName(argv[++i]);
      if (!format.has_value()) {
        std::fprintf(stderr, "unknown wire format '%s'\n", argv[i]);
        return 2;
      }
      wire = *format;
    } else if (arg == "--shards") {
      if (!next_int(&options.shards)) return Usage(argv[0]);
    } else if (arg == "--k") {
      if (!next_int(&options.manager.k)) return Usage(argv[0]);
    } else if (arg == "--fanout") {
      if (!next_int(&options.manager.fanout)) return Usage(argv[0]);
    } else if (arg == "--workers") {
      if (!next_int(&options.scheduler.workers)) return Usage(argv[0]);
    } else if (arg == "--queue") {
      if (!next_int(&options.queue_capacity)) return Usage(argv[0]);
    } else if (arg == "--max-sessions") {
      if (!next_int(&options.manager.max_sessions)) return Usage(argv[0]);
    } else if (arg == "--selector") {
      if (i + 1 >= argc) return Usage(argv[0]);
      const auto kind = ptk::core::SelectorKindFromName(argv[++i]);
      if (!kind.has_value()) {
        std::fprintf(stderr, "unknown selector '%s'\n", argv[i]);
        return 2;
      }
      options.manager.selector = *kind;
    } else if (arg == "--semantics") {
      // Server-wide default objective; a create_session request naming
      // its own semantics still overrides per session.
      if (i + 1 >= argc) return Usage(argv[0]);
      const auto semantics = ptk::core::SemanticsFromName(argv[++i]);
      if (!semantics.has_value()) {
        std::fprintf(stderr, "unknown ranking semantics '%s'\n", argv[i]);
        return 2;
      }
      options.manager.semantics = *semantics;
    } else if (arg == "--order") {
      if (i + 1 >= argc) return Usage(argv[0]);
      const std::string mode = argv[++i];
      if (mode == "sensitive") {
        options.manager.order = ptk::pw::OrderMode::kSensitive;
      } else if (mode == "insensitive") {
        options.manager.order = ptk::pw::OrderMode::kInsensitive;
      } else {
        return Usage(argv[0]);
      }
    } else if (arg == "--update-working") {
      options.manager.update_working = true;
    } else if (arg == "--metrics") {
      dump_metrics = true;
    } else if (arg == "--persist-dir") {
      if (i + 1 >= argc) return Usage(argv[0]);
      options.manager.persist.dir = argv[++i];
    } else if (arg == "--no-fsync") {
      options.manager.persist.fsync = false;
    } else if (arg == "--snapshot-every") {
      if (!next_int(&options.manager.persist.snapshot_every)) {
        return Usage(argv[0]);
      }
    } else if (arg == "--recover") {
      recover = true;
    } else if (arg[0] == '-') {
      return Usage(argv[0]);
    } else if (csv_path == nullptr) {
      csv_path = argv[i];
    } else {
      return Usage(argv[0]);
    }
  }
  if (csv_path == nullptr) return Usage(argv[0]);

  ptk::util::StatusOr<ptk::model::Database> db =
      ptk::data::LoadCsv(csv_path);
  if (!db.ok()) {
    std::fprintf(stderr, "%s\n", db.status().ToString().c_str());
    return 1;
  }

  ptk::serve::Runtime runtime(*db, options);
  if (recover) {
    if (options.manager.persist.dir.empty()) {
      std::fprintf(stderr, "--recover requires --persist-dir\n");
      return 2;
    }
    ptk::util::StatusOr<int> recovered = runtime.Recover();
    if (!recovered.ok()) {
      std::fprintf(stderr, "recovery failed: %s\n",
                   recovered.status().ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "recovered %d session(s) from %s\n", *recovered,
                 options.manager.persist.dir.c_str());
  }

  const ptk::serve::Codec& codec = ptk::serve::CodecFor(wire);
  OrderedWriter writer;
  uint64_t ticket = 0;

  auto process_frame = [&](std::string_view frame) {
    const uint64_t t = ticket++;
    if (wire == ptk::serve::WireFormat::kJsonLines && frame.empty()) {
      writer.Push(t, "\n");  // keep tickets dense; echo blank lines as blank
      return;
    }
    ptk::serve::Request request;
    if (ptk::util::Status decoded = codec.DecodeRequest(frame, &request);
        !decoded.ok()) {
      writer.Push(t, codec.EncodeResponse(ptk::serve::ErrorResponse(
                         request.id, std::move(decoded))));
      return;
    }
    runtime.Submit(std::move(request),
                   [&writer, &codec, t](ptk::serve::Response response) {
                     writer.Push(t, codec.EncodeResponse(response));
                   });
  };

  std::string buffer;
  char chunk[64 * 1024];
  bool framing_fault = false;
  for (;;) {
    // read(2), not fread: fread blocks until the whole chunk fills, which
    // stalls streaming clients (a FIFO or socket that trickles requests
    // would never get an answer). read returns whatever is available.
    ssize_t n = ::read(fileno(stdin), chunk, sizeof(chunk));
    while (n < 0 && errno == EINTR) {
      n = ::read(fileno(stdin), chunk, sizeof(chunk));
    }
    if (n > 0) buffer.append(chunk, static_cast<size_t>(n));
    size_t offset = 0;
    for (;;) {
      ptk::util::StatusOr<ptk::serve::FrameSplit> split = codec.SplitFrame(
          std::string_view(buffer).substr(offset));
      if (!split.ok()) {
        // Unrecoverable framing fault (oversized frame): answer it and
        // stop reading — the stream cannot be resynchronized.
        writer.Push(ticket++, codec.EncodeResponse(ptk::serve::ErrorResponse(
                                  "", split.status())));
        framing_fault = true;
        break;
      }
      if (!split->complete) break;
      process_frame(split->frame);
      offset += split->consumed;
    }
    buffer.erase(0, offset);
    if (framing_fault || n <= 0) break;  // EOF or read error
  }
  if (!framing_fault && !buffer.empty()) {
    if (wire == ptk::serve::WireFormat::kJsonLines) {
      process_frame(buffer);  // final line without trailing newline
    } else {
      std::fprintf(stderr, "truncated frame at EOF (%zu byte(s) dropped)\n",
                   buffer.size());
    }
  }

  runtime.Shutdown();  // drain: every accepted request responds
  if (dump_metrics) {
    std::fputs(ptk::obs::FormatPrometheus(
                   ptk::obs::MetricsRegistry::Default().Snapshot())
                   .c_str(),
               stderr);
  }
  return 0;
}
