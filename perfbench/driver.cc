#include "driver.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <thread>

#include "data/csv.h"
#include "obs/export.h"
#include "prom.h"
#include "simd/kernels.h"
#include "stats.h"
#include "trace.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

namespace fs = std::filesystem;

// Server spawns per run; setup_s is their median.
constexpr int kSetupSpawns = 9;

// Open-loop validity: a generator this late, or this much work still
// queued when the schedule ends, means the offered rate was not held.
constexpr double kMaxLatenessMs = 100.0;
constexpr double kMaxDrainMs = 500.0;

// The open loop's reads take a fraction of a millisecond and start on idle
// cores. Started right after CPU-heavy work, such as the previous run's
// output check, a run read them ~1.6x slower throughout (its light load
// never let that state go), while a few idle seconds first let every run
// start alike.
constexpr auto kOpenLoopSettle = std::chrono::seconds(8);

// Outlier guard: the exact-conditioning cliff (pw/joint_component.h).
constexpr int kCliffComponent = 16;
constexpr double kCliffRequestMs = 2000.0;

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json. Every workload reports every one of these,
// so next_pairs latency (no selection runs on zipf_durable) and the tails
// (too few samples beyond them to repeat within a bound) are on the
// context line instead, with the failed-request ratio.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"throughput_rps", "req/s"},
    {"post_answers_p50_ms", "ms"},
    {"quality_p50_ms", "ms"},
    {"distribution_p50_ms", "ms"},
    {"peak_rss_mb", "MB"},
    {"uncertainty_left", "ratio"},
};

constexpr MetricDef kPerLayer[] = {
    {"codec.decode_us", "us"},
    {"codec.encode_us", "us"},
    {"codec.response_bytes", "bytes"},
    {"server.order_wait_p50_ms", "ms"},
    {"server.order_wait_tail_ms", "ms"},
    {"runtime.wait_p50_ms", "ms"},
    {"runtime.wait_tail_ms", "ms"},
    {"runtime.coalesced_post_ratio", "ratio"},
    {"runtime.batched_read_ratio", "ratio"},
    {"runtime.shed", "count"},
    {"session.next_pairs_ms", "ms"},
    {"session.post_answers_ms", "ms"},
    {"session.quality_ms", "ms"},
    {"session.distribution_ms", "ms"},
    {"core.select_ms", "ms"},
    {"selector.evals_per_pair", "evals/pair"},
    {"selector.prune_ratio", "ratio"},
    {"selector.overshoot_ratio", "ratio"},
    {"pool.batches_per_select", "batches/select"},
    {"pool.tasks_per_batch", "tasks/batch"},
    {"semantics.pair_improvement_us", "us"},
    {"semantics.uncertainty_ms", "ms"},
    {"semantics.evals", "count"},
    {"engine.fold_us", "us"},
    {"engine.distribution_build_p50_ms", "ms"},
    {"engine.distribution_build_tail_ms", "ms"},
    {"engine.memo_hit_ratio", "ratio"},
    {"pw.distribution_sets", "sets"},
    {"pw.max_component", "objects"},
    {"persist.append_us", "us"},
    {"persist.fsync_ms", "ms"},
    {"persist.fsyncs_per_post", "fsyncs/post"},
    {"persist.wal_bytes_per_answer", "bytes/answer"},
    {"persist.snapshots", "count"},
    {"memory.session_bytes", "bytes"},
    {"memory.unaccounted_mb", "MB"},
    {"pbtree.node_copies", "count"},
    {"membership.object_refreshes", "count"},
};

/// A flat JSON object under construction; values are pre-rendered.
class Json {
 public:
  Json& Num(const std::string& key, double v) {
    return Raw(key, FormatNumber(v));
  }
  Json& Int(const std::string& key, int64_t v) {
    return Raw(key, std::to_string(v));
  }
  Json& Bool(const std::string& key, bool v) {
    return Raw(key, v ? "true" : "false");
  }
  Json& Str(const std::string& key, const std::string& v) {
    return Raw(key, "\"" + ptk::obs::JsonEscape(v) + "\"");
  }
  Json& Raw(const std::string& key, const std::string& json) {
    fields_.emplace_back(key, json);
    return *this;
  }
  std::string str() const {
    std::string out = "{";
    for (size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) out += ", ";
      out += "\"" + ptk::obs::JsonEscape(fields_[i].first) +
             "\": " + fields_[i].second;
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

std::string SummaryJson(const Summary& s) {
  return Json()
      .Int("n", s.n)
      .Num("p50", s.p50)
      .Num("tail", s.tail)
      .Num("tail_pct", s.tail_pct)
      .Num("max", s.max)
      .str();
}

std::string ListJson(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    out += (i > 0 ? ", " : "") + FormatNumber(values[i]);
  }
  return out + "]";
}

std::string StringListJson(const std::vector<std::string>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    out += (i > 0 ? ", \"" : "\"") + ptk::obs::JsonEscape(values[i]) + "\"";
  }
  return out + "]";
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Writes one metrics request and reads its response (unmeasured).
bool SnapshotMetrics(Endpoint& endpoint, const serve::Codec& codec,
                     ClientRun* run) {
  serve::Request request;
  request.op = serve::Op::kMetrics;
  request.id = "metrics";
  endpoint.Write(codec.EncodeRequest(request));
  ++run->sent;
  std::string frame;
  Clock::time_point at;
  if (!endpoint.Read(&frame, &at)) return false;
  const util::StatusOr<serve::Response> response =
      codec.DecodeResponse(frame);
  if (!response.ok()) return false;
  if (const auto* metrics =
          std::get_if<serve::Response::Metrics>(&response->payload)) {
    run->session_bytes = metrics->session_bytes_total;
  }
  return true;
}

}  // namespace

ClientRun RunClosedLoop(Endpoint& endpoint, const WorkloadSpec& spec,
                        const model::Database& db, uint64_t seed,
                        double seconds) {
  const serve::Codec& codec = serve::CodecFor(spec.wire);
  const int length = ClosedLoopScriptLength(spec);
  ClientRun run;
  struct Slot {
    int log = -1;  // index into run.sessions while a session is open
    int step = 0;
    std::vector<double> world;
    std::vector<std::pair<model::ObjectId, model::ObjectId>> answers;
  };
  std::vector<Slot> slots(spec.clients);
  uint64_t tag = 0;

  auto round = [&](bool measured) {
    std::vector<int> who;
    std::vector<serve::Request> requests;
    std::string bytes;
    for (int i = 0; i < spec.clients; ++i) {
      Slot& slot = slots[i];
      serve::Request request;
      request.id = "c" + std::to_string(tag++);
      request.op = ClosedLoopOp(spec, slot.step);
      if (request.op != serve::Op::kCreateSession) {
        request.session = run.sessions[slot.log].session;
      }
      switch (request.op) {
        case serve::Op::kCreateSession:
          request.semantics = spec.slot_semantics[i];
          slot.world = WorldValues(
              db, seed, static_cast<int64_t>(run.sessions.size() + who.size()));
          break;
        case serve::Op::kNextPairs:
          request.count = spec.pairs_per_round;
          break;
        case serve::Op::kPostAnswers:
          request.answers = slot.answers;
          break;
        case serve::Op::kDistribution:
          request.limit = spec.closed_distribution_limit;
          break;
        default:
          break;
      }
      bytes += codec.EncodeRequest(request);
      who.push_back(i);
      requests.push_back(std::move(request));
    }
    if (who.empty()) return true;
    const Clock::time_point start = Clock::now();
    endpoint.Write(bytes);
    const int64_t first_seq = run.sent;
    run.sent += static_cast<int64_t>(who.size());
    for (size_t j = 0; j < who.size(); ++j) {
      std::string frame;
      Clock::time_point at;
      if (!endpoint.Read(&frame, &at)) return run.stream_ok = false;
      util::StatusOr<serve::Response> response = codec.DecodeResponse(frame);
      if (!response.ok()) return run.stream_ok = false;
      Slot& slot = slots[who[j]];
      if (requests[j].op == serve::Op::kCreateSession) {
        SessionLog log;
        if (const auto* created =
                std::get_if<serve::Response::Created>(&response->payload)) {
          log.session = created->session;
        }
        run.sessions.push_back(std::move(log));
        slot.log = static_cast<int>(run.sessions.size()) - 1;
      }
      if (requests[j].op == serve::Op::kNextPairs) {
        slot.answers.clear();
        if (const auto* pairs =
                std::get_if<serve::Response::Pairs>(&response->payload)) {
          for (const serve::Response::PairScore& p : pairs->pairs) {
            slot.answers.push_back(Orient(slot.world, p.a, p.b));
          }
        }
      }
      Exchange ex;
      ex.request = std::move(requests[j]);
      ex.response = *std::move(response);
      ex.start = start;
      ex.received = at;
      ex.measured = measured;
      ex.seq = first_seq + static_cast<int64_t>(j);
      run.sessions[slot.log].exchanges.push_back(std::move(ex));
      slot.step = (slot.step + 1) % length;
      if (slot.step == 0) slot.log = -1;
      if (measured) run.window_end = at;
    }
    return true;
  };

  // Whole sessions only: every measured session runs its full script, so
  // each latency class holds the same mix of script steps in every run.
  auto sessions = [&](bool measured, bool snapshot) {
    for (int step = 0; step < length; ++step) {
      // Session memory is read with every session open and fully folded.
      if (snapshot && step == length - 1 &&
          !SnapshotMetrics(endpoint, codec, &run)) {
        return run.stream_ok = false;
      }
      if (!round(measured)) return false;
    }
    return true;
  };
  if (!sessions(false, true)) return run;
  run.window_start = Clock::now();
  const Clock::time_point deadline =
      run.window_start + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(seconds));
  while (Clock::now() < deadline) {
    if (!sessions(true, false)) return run;
  }
  return run;
}

ClientRun RunOpenLoop(Endpoint& endpoint, const WorkloadSpec& spec,
                      const std::vector<Scheduled>& schedule) {
  const serve::Codec& codec = serve::CodecFor(spec.wire);
  ClientRun run;
  const size_t n = schedule.size();
  std::vector<std::string> frames(n);
  std::vector<int> log_of(n);
  std::map<std::string, int> by_session;
  uint64_t next_session = 1;
  for (size_t i = 0; i < n; ++i) {
    const serve::Request& request = schedule[i].request;
    frames[i] = codec.EncodeRequest(request);
    const std::string session =
        request.op == serve::Op::kCreateSession
            ? "s" + std::to_string(next_session++)
            : request.session;
    auto [it, inserted] = by_session.emplace(
        session, static_cast<int>(run.sessions.size()));
    if (inserted) run.sessions.push_back(SessionLog{session, {}});
    log_of[i] = it->second;
  }

  std::vector<serve::Response> responses(n);
  std::vector<Clock::time_point> received(n);
  std::atomic<int64_t> answered{0};
  bool reader_ok = true;
  std::thread reader([&] {
    for (size_t i = 0; i < n; ++i) {
      std::string frame;
      Clock::time_point at;
      util::StatusOr<serve::Response> response = util::Status::Internal("");
      if (!endpoint.Read(&frame, &at) ||
          !(response = codec.DecodeResponse(frame)).ok()) {
        reader_ok = false;
        return;
      }
      responses[i] = *std::move(response);
      received[i] = at;
      answered.store(static_cast<int64_t>(i) + 1, std::memory_order_release);
    }
  });

  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(20);
  std::vector<Clock::time_point> due(n);
  std::vector<double> lateness;
  lateness.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    due[i] = t0 + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(schedule[i].due_s));
    std::this_thread::sleep_until(due[i]);
    lateness.push_back(MillisBetween(due[i], Clock::now()));
    endpoint.Write(frames[i]);
  }
  run.backlog_at_end =
      static_cast<int64_t>(n) - answered.load(std::memory_order_acquire);
  reader.join();
  run.sent = static_cast<int64_t>(n);
  if (!reader_ok || n == 0) {
    run.stream_ok = false;
    return run;
  }
  std::sort(lateness.begin(), lateness.end());
  run.max_lateness_ms = lateness.back();
  run.p99_lateness_ms = PercentileOfSorted(lateness, 99.0);
  run.drain_ms = MillisBetween(due[n - 1], received[n - 1]);
  run.window_start =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(spec.open_warmup_s));
  for (size_t i = 0; i < n; ++i) {
    Exchange ex;
    ex.request = schedule[i].request;
    ex.response = std::move(responses[i]);
    ex.start = due[i];
    ex.received = received[i];
    ex.measured = schedule[i].due_s >= spec.open_warmup_s;
    ex.seq = static_cast<int64_t>(i);
    if (ex.measured) run.window_end = std::max(run.window_end, ex.received);
    run.sessions[log_of[i]].exchanges.push_back(std::move(ex));
  }
  if (!SnapshotMetrics(endpoint, codec, &run)) run.stream_ok = false;
  return run;
}

namespace {

struct RunContext {
  RunOptions options;
  WorkloadSpec spec;
  std::string run_dir;
  std::string csv_path;
};

struct Launched {
  std::unique_ptr<ServerProcess> server;
  double setup_s = 0.0;
};

/// Spawns ptk_server on a fresh journal directory and waits for its first
/// response (a metrics request): the set-up time a client sees.
util::StatusOr<Launched> Launch(const RunContext& ctx, const std::string& tag,
                                std::string* stderr_path) {
  const std::string persist_dir = ctx.run_dir + "/persist-" + tag;
  fs::remove_all(persist_dir);
  *stderr_path = ctx.run_dir + "/server-" + tag + ".stderr";
  const serve::Codec& codec = serve::CodecFor(ctx.spec.wire);
  const Clock::time_point start = Clock::now();
  util::StatusOr<std::unique_ptr<ServerProcess>> server =
      ServerProcess::Spawn(ctx.options.server_binary,
                           ServerArgs(ctx.spec, ctx.csv_path, persist_dir),
                           *stderr_path, ctx.spec.wire);
  if (!server.ok()) return server.status();
  serve::Request request;
  request.op = serve::Op::kMetrics;
  request.id = "setup";
  (*server)->Write(codec.EncodeRequest(request));
  std::string frame;
  Clock::time_point at;
  if (!(*server)->Read(&frame, &at)) {
    return util::Status::Internal("ptk_server exited during set-up: " +
                                  ReadFile(*stderr_path));
  }
  Launched launched;
  launched.setup_s =
      std::chrono::duration<double>(at - start).count();
  launched.server = *std::move(server);
  return launched;
}

/// Ends a server's input, drains it and waits for a clean exit.
bool Finish(ServerProcess& server) {
  server.CloseInput();
  std::string frame;
  Clock::time_point at;
  while (server.Read(&frame, &at)) {
  }
  return server.Wait() == 0;
}

std::map<std::string, std::vector<double>> LatenciesByOp(const ClientRun& run) {
  std::map<std::string, std::vector<double>> by_op;
  for (const SessionLog& log : run.sessions) {
    for (const Exchange& ex : log.exchanges) {
      if (!ex.measured || !ex.response.status.ok()) continue;
      by_op[std::string(serve::OpName(ex.request.op))].push_back(
          MillisBetween(ex.start, ex.received));
    }
  }
  return by_op;
}

struct Tally {
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t measured_ok = 0;
  int64_t next_pairs_ok = 0;
  int64_t pairs_handed = 0;
  int64_t posts = 0;
  int64_t answers = 0;
  int64_t reads = 0;
  int64_t shed = 0;
};

Tally Count(const ClientRun& run) {
  Tally t;
  t.attempted = run.sent;
  for (const SessionLog& log : run.sessions) {
    for (const Exchange& ex : log.exchanges) {
      const bool ok = ex.response.status.ok();
      if (!ok) ++t.failed;
      if (IsShed(ex.response)) ++t.shed;
      if (ok && ex.measured) ++t.measured_ok;
      switch (ex.request.op) {
        case serve::Op::kNextPairs:
          if (const auto* pairs =
                  std::get_if<serve::Response::Pairs>(&ex.response.payload)) {
            ++t.next_pairs_ok;
            t.pairs_handed += static_cast<int64_t>(pairs->pairs.size());
          }
          break;
        case serve::Op::kPostAnswers:
          ++t.posts;
          if (ok) t.answers += static_cast<int64_t>(ex.request.answers.size());
          break;
        case serve::Op::kQuality:
        case serve::Op::kDistribution:
          ++t.reads;
          break;
        default:
          break;
      }
    }
  }
  return t;
}

/// Mean over sessions of final / initial objective.
double UncertaintyLeft(const WorkloadSpec& spec, const ClientRun& run,
                       Reference& reference) {
  std::vector<double> ratios;
  for (const SessionLog& log : run.sessions) {
    if (spec.loop == WorkloadSpec::Loop::kClosed) {
      // The script reads quality right after create and after each round;
      // only sessions that ran their whole script count.
      std::vector<double> qualities;
      bool complete = false;
      for (const Exchange& ex : log.exchanges) {
        if (const auto* q =
                std::get_if<serve::Response::Quality>(&ex.response.payload)) {
          qualities.push_back(q->quality);
        }
        if (ex.request.op == serve::Op::kClose && ex.response.status.ok()) {
          complete = true;
        }
      }
      if (complete && qualities.size() >= 2 && qualities.front() > 0.0) {
        ratios.push_back(qualities.back() / qualities.front());
      }
      continue;
    }
    std::vector<std::pair<model::ObjectId, model::ObjectId>> answers;
    std::string semantics;
    for (const Exchange& ex : log.exchanges) {
      if (ex.request.op == serve::Op::kCreateSession) {
        semantics = ex.request.semantics;
      }
      if (ex.request.op == serve::Op::kPostAnswers &&
          ex.response.status.ok()) {
        answers.insert(answers.end(), ex.request.answers.begin(),
                       ex.request.answers.end());
      }
    }
    if (answers.empty()) continue;
    const double initial = reference.QualityAfter(semantics, {});
    if (initial > 0.0) {
      ratios.push_back(reference.QualityAfter(semantics, answers) / initial);
    }
  }
  double sum = 0.0;
  for (const double r : ratios) sum += r;
  return ratios.empty() ? 0.0 : sum / static_cast<double>(ratios.size());
}

std::string ParamsJson(const RunContext& ctx) {
  const WorkloadSpec& s = ctx.spec;
  Json j;
  j.Int("m", s.m)
      .Int("instances", s.instances)
      .Num("value_range", s.value_range)
      .Num("width", s.width)
      .Int("k", s.k)
      .Str("wire", s.wire == serve::WireFormat::kBinary ? "binary" : "json")
      .Int("shards", s.shards)
      .Int("workers", serve::Scheduler::Options{}.workers)
      .Bool("coalesce", serve::Runtime::Options{}.coalesce)
      .Bool("persist", s.persist)
      .Bool("fsync", s.persist && ManagerOptions(s).persist.fsync)
      .Str("selector", std::string(core::SelectorKindName(
                           ManagerOptions(s).selector)));
  if (s.loop == WorkloadSpec::Loop::kClosed) {
    j.Str("loop", "closed-lockstep")
        .Int("clients", s.clients)
        .Raw("client_semantics", StringListJson(s.slot_semantics))
        .Int("rounds_per_session", s.rounds_per_session)
        .Int("pairs_per_round", s.pairs_per_round)
        .Int("answers_per_session",
             s.rounds_per_session * s.pairs_per_round)
        .Int("distribution_limit", s.closed_distribution_limit);
  } else {
    j.Str("loop", "open")
        .Num("offered_rps", s.rate)
        .Int("slots", s.slots)
        .Num("zipf_s", s.zipf_s)
        .Num("share_quality", s.share_quality)
        .Num("share_distribution", s.share_distribution)
        .Num("share_posts", s.share_posts)
        .Int("post_clump", s.clump)
        .Int("answers_per_session", s.answers_per_session)
        .Int("answer_pool", s.answer_pool)
        .Int("distribution_limit", s.open_distribution_limit)
        .Num("warmup_s", s.open_warmup_s);
  }
  j.Num("seconds", ctx.options.seconds)
      .Int("seed", static_cast<int64_t>(ctx.options.seed));
  return j.str();
}

std::string HostJson() {
  const char* threads = std::getenv("PTK_THREADS");
  return Json()
      .Int("nproc", std::thread::hardware_concurrency())
      .Str("simd_level", ptk::simd::ActiveLevelName())
      .Str("build_type", PERFBENCH_BUILD_TYPE)
      .Str("ptk_threads", threads != nullptr ? threads : "unset")
      .str();
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Per-layer counts from the server's Prometheus export and the client's
/// own tallies: exact for a fixed seed and fixed work.
std::map<std::string, double> CountsFromExport(const PromSamples& prom,
                                               const Tally& t) {
  const double evaluated =
      PromValue(prom, "ptk_selector_pairs_evaluated_total");
  const double pruned = PromValue(prom, "ptk_selector_delta_prunes_total");
  const double batches = PromValue(prom, "ptk_pool_batches_total");
  const double hits =
      PromValue(prom, "ptk_engine_distribution_memo_hits_total");
  const double builds =
      PromValue(prom, "ptk_engine_distribution_builds_total");
  return {
      {"selector.evals_per_pair",
       Ratio(evaluated, static_cast<double>(t.pairs_handed))},
      {"selector.prune_ratio", Ratio(pruned, pruned + evaluated)},
      {"selector.overshoot_ratio",
       Ratio(PromValue(prom, "ptk_selector_speculative_overshoot_total"),
             evaluated)},
      {"pool.batches_per_select",
       Ratio(batches, static_cast<double>(t.next_pairs_ok))},
      {"pool.tasks_per_batch",
       Ratio(PromValue(prom, "ptk_pool_tasks_total"), batches)},
      {"engine.memo_hit_ratio", Ratio(hits, hits + builds)},
      {"persist.fsyncs_per_post",
       Ratio(PromValue(prom, "ptk_persist_fsync_seconds_count"),
             static_cast<double>(t.posts))},
      {"persist.wal_bytes_per_answer",
       Ratio(PromValue(prom, "ptk_persist_wal_bytes_total"),
             static_cast<double>(t.answers))},
      {"persist.snapshots", PromValue(prom, "ptk_persist_snapshots_total")},
      {"runtime.coalesced_post_ratio",
       Ratio(PromFamilySum(prom, "ptk_serve_shard_coalesced_folds_total"),
             static_cast<double>(t.posts))},
      {"runtime.batched_read_ratio",
       Ratio(PromFamilySum(prom, "ptk_serve_shard_batched_reads_total"),
             static_cast<double>(t.reads))},
      {"runtime.shed", PromFamilySum(prom, "ptk_serve_shard_shed_total")},
      {"semantics.evals",
       PromFamilySum(prom, "ptk_engine_semantics_evals_total")},
      {"pbtree.node_copies", PromValue(prom, "ptk_pbtree_node_copies_total")},
      {"membership.object_refreshes",
       PromValue(prom, "ptk_membership_object_refreshes_total")},
  };
}

std::string MapJson(const std::map<std::string, double>& values) {
  Json j;
  for (const auto& [key, value] : values) j.Num(key, value);
  return j.str();
}

std::string CheckJson(const CheckReport& report, int64_t replays) {
  return Json()
      .Int("compared", report.compared)
      .Int("mismatches", report.mismatches)
      .Int("violations", report.violations)
      .Int("probabilities_over_one", report.over_one)
      .Int("replayed_scripts", replays)
      .Raw("errors", StringListJson(report.errors))
      .str();
}

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::map<std::string, double>& values,
                 const MetricDef* defs, size_t count) {
  Json metrics;
  if (correct) {
    for (size_t i = 0; i < count; ++i) {
      const auto it = values.find(defs[i].name);
      metrics.Raw(defs[i].name,
                  Json()
                      .Num("value", it == values.end() ? 0.0 : it->second)
                      .Str("unit", defs[i].unit)
                      .str());
    }
  }
  std::printf("%s\n", Json()
                          .Bool("correct", correct)
                          .Int("attempted", std::max<int64_t>(attempted, 1))
                          .Int("failed", failed)
                          .Raw("metrics", metrics.str())
                          .str()
                          .c_str());
  std::fflush(stdout);
}

/// The traced run: the same traffic through the in-process stack, then
/// the sequential per-layer replays. Fills per-layer values and the
/// trace section of the context line; false when its output check fails.
bool TracedRun(const RunContext& ctx, const model::Database& db,
               const std::vector<Scheduled>& schedule,
               std::map<std::string, double>* layer, Json* context) {
  const WorkloadSpec& spec = ctx.spec;
  serve::Runtime::Options options;
  options.shards = spec.shards;
  options.manager = ManagerOptions(spec);
  if (spec.persist) {
    options.manager.persist.dir = ctx.run_dir + "/persist-traced";
    fs::remove_all(options.manager.persist.dir);
  }
  DurationLog stack_selects;
  options.manager.selector_factory =
      TimedSelectorFactory(options.manager.selector, &stack_selects);

  const Clock::time_point start = Clock::now();
  ClientRun run;
  std::vector<RequestSpans> spans;
  {
    TracedServer server(db, options, spec.wire);
    run = spec.loop == WorkloadSpec::Loop::kClosed
              ? RunClosedLoop(server, spec, db, ctx.options.seed,
                              ctx.options.seconds)
              : RunOpenLoop(server, spec, schedule);
    server.CloseInput();
    spans = server.Spans();
  }
  const double traced_wall_s =
      std::chrono::duration<double>(Clock::now() - start).count();
  if (!run.stream_ok) {
    std::fprintf(stderr, "traced run: response stream broke\n");
    return false;
  }

  // Output check of the traced responses.
  Reference reference(db, spec, nullptr);
  const CheckReport check =
      CheckSessions(reference, run.sessions, spec.k, spec.wire);

  // Service times: measured sessions replayed one call at a time through a
  // SessionManager with the server's options, journal included (all of
  // them for the open loop's short sessions, the first few distinct ones
  // for the closed loops, whose sessions are long and alike).
  DurationLog selects;
  const std::string journal_dir =
      spec.persist ? ctx.run_dir + "/persist-replay" : "";
  fs::remove_all(ctx.run_dir + "/persist-replay");
  Reference timed(db, spec, &selects, journal_dir);
  const size_t timed_sessions =
      spec.loop == WorkloadSpec::Loop::kClosed ? 8 : run.sessions.size();
  std::map<std::string, std::vector<double>> service_by_op;
  std::vector<double> runtime_wait, order_wait, decode_us, encode_us;
  double next_pairs_total_ms = 0.0;
  std::set<std::string> distinct;
  for (const SessionLog& log : run.sessions) {
    if (distinct.size() >= timed_sessions) break;
    const bool measured =
        std::any_of(log.exchanges.begin(), log.exchanges.end(),
                    [](const Exchange& ex) { return ex.measured; });
    if (!measured || !distinct.insert(ScriptKey(log)).second) continue;
    const Reference::Replay& replay = timed.ReplayOf(log);
    size_t i = 0;
    for (const Exchange& ex : log.exchanges) {
      if (IsShed(ex.response)) continue;
      const double service = replay.service_ms[i++];
      service_by_op[std::string(serve::OpName(ex.request.op))].push_back(
          service);
      if (ex.request.op == serve::Op::kNextPairs) {
        next_pairs_total_ms += service;
      }
      if (ex.measured && ex.seq >= 0 &&
          ex.seq < static_cast<int64_t>(spans.size())) {
        const RequestSpans& s = spans[ex.seq];
        runtime_wait.push_back(
            std::max(0.0, MillisBetween(s.submitted, s.done) - service));
      }
    }
  }
  // The spans themselves, one line per request, for whoever wants to look
  // past the summaries (times in ms from the first decode).
  if (std::FILE* out = std::fopen((ctx.run_dir + "/spans.jsonl").c_str(),
                                  "w")) {
    const Clock::time_point origin =
        spans.empty() ? Clock::time_point{} : spans.front().decode_start;
    for (size_t i = 0; i < spans.size(); ++i) {
      const RequestSpans& s = spans[i];
      std::fprintf(
          out, "%s\n",
          Json()
              .Int("seq", static_cast<int64_t>(i))
              .Str("op", std::string(serve::OpName(s.op)))
              .Str("session", s.session)
              .Num("decode_start", MillisBetween(origin, s.decode_start))
              .Num("decode_end", MillisBetween(origin, s.decode_end))
              .Num("submitted", MillisBetween(origin, s.submitted))
              .Num("done", MillisBetween(origin, s.done))
              .Num("encoded", MillisBetween(origin, s.encoded))
              .Num("released", MillisBetween(origin, s.released))
              .Int("response_bytes", static_cast<int64_t>(s.response_bytes))
              .str()
              .c_str());
    }
    std::fclose(out);
  }

  // Codec and transport spans of every measured request.
  double response_bytes = 0.0;
  for (const SessionLog& log : run.sessions) {
    for (const Exchange& ex : log.exchanges) {
      if (!ex.measured || ex.seq < 0 ||
          ex.seq >= static_cast<int64_t>(spans.size())) {
        continue;
      }
      const RequestSpans& s = spans[ex.seq];
      order_wait.push_back(MillisBetween(s.encoded, s.released));
      decode_us.push_back(1e3 * MillisBetween(s.decode_start, s.decode_end));
      encode_us.push_back(1e3 * MillisBetween(s.done, s.encoded));
      response_bytes += static_cast<double>(s.response_bytes);
    }
  }
  const std::vector<double> select_ms = selects.values();
  double select_total_ms = 0.0;
  for (const double ms : select_ms) select_total_ms += ms;

  const LayerReplay replay =
      ReplayLayers(spec, db, run.sessions, ctx.run_dir);

  const Summary rwait = Summarize(runtime_wait);
  const Summary owait = Summarize(order_wait);
  const Summary builds = Summarize(replay.distribution_build_ms);
  auto& out = *layer;
  out["codec.decode_us"] = Median(decode_us);
  out["codec.encode_us"] = Median(encode_us);
  out["codec.response_bytes"] =
      Ratio(response_bytes, static_cast<double>(decode_us.size()));
  out["server.order_wait_p50_ms"] = owait.p50;
  out["server.order_wait_tail_ms"] = owait.tail;
  out["runtime.wait_p50_ms"] = rwait.p50;
  out["runtime.wait_tail_ms"] = rwait.tail;
  out["session.next_pairs_ms"] = Median(service_by_op["next_pairs"]);
  out["session.post_answers_ms"] = Median(service_by_op["post_answers"]);
  out["session.quality_ms"] = Median(service_by_op["quality"]);
  out["session.distribution_ms"] = Median(service_by_op["distribution"]);
  out["core.select_ms"] = Median(select_ms);
  out["semantics.pair_improvement_us"] = Median(replay.pair_improvement_us);
  out["semantics.uncertainty_ms"] = Median(replay.uncertainty_ms);
  out["engine.fold_us"] = Median(replay.fold_us);
  out["engine.distribution_build_p50_ms"] = builds.p50;
  out["engine.distribution_build_tail_ms"] = builds.tail;
  out["pw.distribution_sets"] = Median(replay.distribution_sets);
  out["pw.max_component"] = replay.max_component;
  out["persist.append_us"] = Median(replay.append_us);
  out["persist.fsync_ms"] = Median(replay.fsync_ms);

  const Tally tally = Count(run);
  context->Raw(
      "trace",
      Json()
          .Num("traced_wall_s", traced_wall_s)
          .Int("traced_requests", tally.attempted)
          .Num("traced_throughput_rps",
               Ratio(static_cast<double>(tally.measured_ok),
                     std::chrono::duration<double>(run.window_end -
                                                   run.window_start)
                         .count()))
          .Raw("runtime_wait_ms", SummaryJson(rwait))
          .Raw("order_wait_ms", SummaryJson(owait))
          .Raw("distribution_build_ms", SummaryJson(builds))
          .Raw("stack_select_ms", SummaryJson(Summarize(
                                      stack_selects.values())))
          .Num("select_share_of_next_pairs",
               Ratio(select_total_ms, next_pairs_total_ms))
          .Int("replayed_scripts", replay.sessions)
          .Raw("check", CheckJson(check, reference.replays()))
          .str());
  return check.ok();
}

}  // namespace

int RunBenchmark(const RunOptions& options) {
  const std::optional<WorkloadSpec> spec = FindWorkload(options.workload);
  if (!spec.has_value()) {
    std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
    return 2;
  }
  RunContext ctx;
  ctx.options = options;
  ctx.spec = *spec;
  ctx.run_dir = options.work_dir + "/" + spec->name + "-" +
                std::to_string(options.seed);
  fs::remove_all(ctx.run_dir);
  fs::create_directories(ctx.run_dir);
  ctx.csv_path = ctx.run_dir + "/catalog.csv";
  if (util::Status s = WriteCatalogCsv(*spec, ctx.csv_path); !s.ok()) {
    std::fprintf(stderr, "catalog: %s\n", s.ToString().c_str());
    return 1;
  }
  // The database exactly as the server loads it.
  util::StatusOr<model::Database> db = ptk::data::LoadCsv(ctx.csv_path);
  if (!db.ok()) {
    std::fprintf(stderr, "catalog: %s\n", db.status().ToString().c_str());
    return 1;
  }
  std::vector<Scheduled> schedule;
  if (spec->loop == WorkloadSpec::Loop::kOpen) {
    schedule = BuildSchedule(*spec, *db, options.seed, options.seconds);
  }

  if (spec->loop == WorkloadSpec::Loop::kOpen) {
    std::this_thread::sleep_for(kOpenLoopSettle);
  }

  // Set-up: throwaway spawns, then the measured server's own.
  std::vector<double> setups;
  for (int i = 0; i + 1 < kSetupSpawns; ++i) {
    std::string stderr_path;
    util::StatusOr<Launched> launched =
        Launch(ctx, "setup" + std::to_string(i), &stderr_path);
    if (!launched.ok() || !Finish(*launched->server)) {
      std::fprintf(stderr, "set-up spawn failed: %s\n",
                   launched.ok() ? ReadFile(stderr_path).c_str()
                                 : launched.status().ToString().c_str());
      return 1;
    }
    setups.push_back(launched->setup_s);
  }
  std::string stderr_path;
  util::StatusOr<Launched> launched = Launch(ctx, "main", &stderr_path);
  if (!launched.ok()) {
    std::fprintf(stderr, "%s\n", launched.status().ToString().c_str());
    return 1;
  }
  setups.push_back(launched->setup_s);
  ServerProcess& server = *launched->server;

  const Clock::time_point measured_start = Clock::now();
  const ClientRun run =
      spec->loop == WorkloadSpec::Loop::kClosed
          ? RunClosedLoop(server, *spec, *db, options.seed, options.seconds)
          : RunOpenLoop(server, *spec, schedule);
  const double measured_wall_s =
      std::chrono::duration<double>(Clock::now() - measured_start).count();
  const double peak_rss_mb = server.PeakRssMb();
  const bool clean_exit = Finish(server);
  const PromSamples prom = ParsePrometheus(ReadFile(stderr_path));

  Reference reference(*db, *spec, nullptr);
  const CheckReport check =
      run.stream_ok
          ? CheckSessions(reference, run.sessions, spec->k, spec->wire)
          : CheckReport{};
  const Tally tally = Count(run);

  std::map<std::string, double> e2e;
  const auto latencies = LatenciesByOp(run);
  std::map<std::string, Summary> summaries;
  for (const auto& [op, values] : latencies) summaries[op] = Summarize(values);
  e2e["setup_s"] = Median(setups);
  e2e["throughput_rps"] =
      Ratio(static_cast<double>(tally.measured_ok),
            std::chrono::duration<double>(run.window_end - run.window_start)
                .count());
  for (const char* op : {"post_answers", "quality", "distribution",
                         "next_pairs"}) {
    e2e[std::string(op) + "_p50_ms"] = summaries[op].p50;
    e2e[std::string(op) + "_tail_ms"] = summaries[op].tail;
  }
  e2e["peak_rss_mb"] = peak_rss_mb;
  e2e["uncertainty_left"] = UncertaintyLeft(*spec, run, reference);
  e2e["failed_ratio"] = Ratio(static_cast<double>(tally.failed),
                              static_cast<double>(tally.attempted));

  // Validity and outlier guards.
  double slowest_ms = 0.0;
  std::string slowest;
  for (const SessionLog& log : run.sessions) {
    for (const Exchange& ex : log.exchanges) {
      const double ms = MillisBetween(ex.start, ex.received);
      if (ex.measured && ms > slowest_ms) {
        slowest_ms = ms;
        slowest = std::string(serve::OpName(ex.request.op)) + " " +
                  ex.request.id + " session " + log.session;
      }
    }
  }
  const int max_component = MaxAnswerComponent(run.sessions);
  const bool outlier =
      max_component >= kCliffComponent || slowest_ms >= kCliffRequestMs;
  bool valid = run.stream_ok && clean_exit && tally.shed == 0;
  if (spec->loop == WorkloadSpec::Loop::kOpen) {
    valid = valid && run.max_lateness_ms <= kMaxLatenessMs &&
            run.drain_ms <= kMaxDrainMs;
  }

  std::map<std::string, double> counts = CountsFromExport(prom, tally);
  counts["memory.session_bytes"] = static_cast<double>(run.session_bytes);
  counts["memory.unaccounted_mb"] =
      peak_rss_mb - static_cast<double>(run.session_bytes) / (1024.0 * 1024.0);

  Json samples;
  for (const auto& [op, summary] : summaries) {
    samples.Raw(op + "_ms", SummaryJson(summary));
  }
  Json context;
  context.Str("workload", spec->name)
      .Str("why", spec->why)
      .Raw("params", ParamsJson(ctx))
      .Raw("host", HostJson())
      .Raw("latency", samples.str())
      .Raw("setup_samples_s", ListJson(setups))
      .Raw("end_to_end", MapJson(e2e))
      .Num("measured_wall_s", measured_wall_s)
      .Raw("validity",
           Json()
               .Bool("valid", valid)
               .Bool("clean_exit", clean_exit)
               .Int("shed", tally.shed)
               .Num("max_lateness_ms", run.max_lateness_ms)
               .Num("p99_lateness_ms", run.p99_lateness_ms)
               .Int("backlog_at_end", run.backlog_at_end)
               .Num("drain_ms", run.drain_ms)
               .Int("max_component", max_component)
               .Num("slowest_ms", slowest_ms)
               .Str("slowest", slowest)
               .Bool("outlier", outlier)
               .str())
      .Raw("check", CheckJson(check, reference.replays()))
      .Raw("counts", MapJson(counts));
  if (outlier) {
    std::fprintf(stderr,
                 "warning: outlier run (largest answer component %d, slowest "
                 "request %.1f ms: %s)\n",
                 max_component, slowest_ms, slowest.c_str());
  }
  if (!check.ok()) {
    for (const std::string& error : check.errors) {
      std::fprintf(stderr, "check: %s\n", error.c_str());
    }
  }

  bool correct = valid && check.ok();
  std::map<std::string, double> layer = counts;
  if (options.trace && correct) {
    correct = TracedRun(ctx, *db, schedule, &layer, &context);
  }
  for (const char* dir :
       {"/persist-main", "/persist-traced", "/persist-replay"}) {
    fs::remove_all(ctx.run_dir + dir);
  }
  for (int i = 0; i + 1 < kSetupSpawns; ++i) {
    fs::remove_all(ctx.run_dir + "/persist-setup" + std::to_string(i));
  }

  std::printf("%s\n", Json().Raw("context", context.str()).str().c_str());
  if (options.trace) {
    PrintResult(correct, tally.attempted, tally.failed, layer, kPerLayer,
                std::size(kPerLayer));
  } else {
    PrintResult(correct, tally.attempted, tally.failed, e2e, kEndToEnd,
                std::size(kEndToEnd));
  }
  return correct ? 0 : 1;
}

}  // namespace perfbench
