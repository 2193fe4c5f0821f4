#include "check.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <set>
#include <thread>

#include "serve/protocol.h"

namespace perfbench {

std::string ScriptKey(const SessionLog& log) {
  std::string key;
  for (const Exchange& ex : log.exchanges) {
    if (IsShed(ex.response)) continue;
    const serve::Request& r = ex.request;
    key += std::to_string(static_cast<int>(r.op)) + ":" +
           std::to_string(r.count) + ":" + std::to_string(r.limit) + ":" +
           std::to_string(r.deadline_ms) + ":" + r.semantics + ":";
    for (const auto& [a, b] : r.answers) {
      key += std::to_string(a) + "<" + std::to_string(b) + ",";
    }
    key += ";";
  }
  return key;
}

namespace {

serve::SessionManager::Options ReferenceOptions(
    const WorkloadSpec& spec, DurationLog* select_log,
    const std::string& journal_dir) {
  serve::SessionManager::Options options = ManagerOptions(spec);
  options.persist.dir = journal_dir;  // empty: in memory
  if (select_log != nullptr) {
    options.selector_factory =
        TimedSelectorFactory(options.selector, select_log);
  }
  return options;
}

// A distribution that conditioning collapsed to one set can report
// p = 1 + 1 ulp after normalization; that rounding is counted
// (CheckReport::over_one), not failed.
constexpr double kProbabilitySlack = 1e-12;

void Violation(CheckReport* report, const std::string& what) {
  ++report->violations;
  if (report->errors.size() < 8) report->errors.push_back(what);
}

void CheckInvariants(const SessionLog& log, int k, CheckReport* report) {
  std::set<std::pair<model::ObjectId, model::ObjectId>> handed;
  for (const Exchange& ex : log.exchanges) {
    const serve::Request& q = ex.request;
    const serve::Response& r = ex.response;
    const std::string where = "session " + log.session + " request " + q.id;
    if (r.id != q.id) Violation(report, where + ": response id " + r.id);
    if (!r.status.ok()) continue;
    if (const auto* pairs = std::get_if<serve::Response::Pairs>(&r.payload)) {
      if (static_cast<int64_t>(pairs->pairs.size()) > q.count) {
        Violation(report, where + ": more pairs than requested");
      }
      for (const serve::Response::PairScore& p : pairs->pairs) {
        if (!handed.insert(std::minmax(p.a, p.b)).second || p.a == p.b) {
          Violation(report, where + ": pair handed out twice");
        }
      }
    } else if (const auto* posted =
                   std::get_if<serve::Response::Posted>(&r.payload)) {
      const serve::PostReport& rep = posted->report;
      if (rep.applied + rep.contradictory + rep.degenerate !=
          static_cast<int>(q.answers.size())) {
        Violation(report, where + ": post report does not sum to answers");
      }
      if (rep.contradictory != 0) {
        Violation(report, where + ": contradictory answer from one world");
      }
    } else if (const auto* dist =
                   std::get_if<serve::Response::Distribution>(&r.payload)) {
      if (q.limit > 0 && static_cast<int64_t>(dist->sets.size()) > q.limit) {
        Violation(report, where + ": more sets than the limit");
      }
      double previous = 1.0 + kProbabilitySlack;
      for (const serve::Response::RankedSet& set : dist->sets) {
        if (set.p > 1.0) ++report->over_one;
        if (!(set.p > 0.0 && set.p <= 1.0 + kProbabilitySlack) ||
            set.p > previous) {
          char detail[96];
          std::snprintf(detail, sizeof(detail), " (p=%.17g after %.17g)",
                        set.p, previous);
          Violation(report,
                    where + ": set probabilities not sorted in (0,1]" + detail);
        }
        previous = set.p;
        if (static_cast<int>(set.objects.size()) != k ||
            !std::is_sorted(set.objects.begin(), set.objects.end()) ||
            std::adjacent_find(set.objects.begin(), set.objects.end()) !=
                set.objects.end()) {
          Violation(report, where + ": set objects not k ascending ids");
        }
      }
    }
  }
}

}  // namespace

bool IsShed(const serve::Response& response) {
  return response.status.code() == util::Status::Code::kResourceExhausted &&
         response.retry_after_ms >= 0;
}

serve::Response OnTheWire(const serve::Response& response,
                          serve::WireFormat wire) {
  const serve::Codec& codec = serve::CodecFor(wire);
  const std::string bytes = codec.EncodeResponse(response);
  const util::StatusOr<serve::FrameSplit> split = codec.SplitFrame(bytes);
  util::StatusOr<serve::Response> decoded =
      split.ok() && split->complete ? codec.DecodeResponse(split->frame)
                                    : util::Status::Internal("framing");
  return decoded.ok() ? *std::move(decoded) : response;
}

Reference::Reference(const model::Database& db, const WorkloadSpec& spec,
                     DurationLog* select_log, const std::string& journal_dir)
    : manager_(db, ReferenceOptions(spec, select_log, journal_dir)) {}

void Reference::Prepare(const std::vector<SessionLog>& logs, int threads) {
  std::vector<const SessionLog*> todo;
  std::set<std::string> keys;
  for (const SessionLog& log : logs) {
    const std::string key = ScriptKey(log);
    if (!memo_.contains(key) && keys.insert(key).second) todo.push_back(&log);
  }
  // The manager serializes per session only, so distinct sessions replay
  // side by side exactly as they would one after another.
  std::vector<Replay> replays(todo.size());
  std::atomic<size_t> next{0};
  auto work = [&] {
    for (size_t i = next++; i < todo.size(); i = next++) {
      replays[i] = Run(*todo[i]);
    }
  };
  std::vector<std::thread> workers;
  for (int t = 1; t < threads; ++t) workers.emplace_back(work);
  work();
  for (std::thread& worker : workers) worker.join();
  for (size_t i = 0; i < todo.size(); ++i) {
    memo_.emplace(ScriptKey(*todo[i]), std::move(replays[i]));
  }
}

const Reference::Replay& Reference::ReplayOf(const SessionLog& log) {
  const std::string key = ScriptKey(log);
  if (const auto it = memo_.find(key); it != memo_.end()) return it->second;
  return memo_.emplace(key, Run(log)).first->second;
}

Reference::Replay Reference::Run(const SessionLog& log) {
  Replay replay;
  std::string session;
  bool closed = false;
  for (const Exchange& ex : log.exchanges) {
    if (IsShed(ex.response)) continue;
    serve::Request request = ex.request;
    if (request.op != serve::Op::kCreateSession) request.session = session;
    const Clock::time_point start = Clock::now();
    serve::Response response =
        serve::ExecuteRequest(manager_, nullptr, request);
    replay.service_ms.push_back(MillisBetween(start, Clock::now()));
    if (const auto* created =
            std::get_if<serve::Response::Created>(&response.payload)) {
      session = created->session;
    }
    if (request.op == serve::Op::kClose && response.status.ok()) {
      closed = true;
    }
    replay.responses.push_back(std::move(response));
  }
  if (!session.empty() && !closed) (void)manager_.Close(session);
  return replay;
}

double Reference::QualityAfter(
    const std::string& semantics,
    const std::vector<std::pair<model::ObjectId, model::ObjectId>>& answers) {
  std::string key = semantics + ":";
  for (const auto& [a, b] : answers) {
    key += std::to_string(a) + "<" + std::to_string(b) + ",";
  }
  if (const auto it = quality_memo_.find(key); it != quality_memo_.end()) {
    return it->second;
  }
  serve::Request create;
  create.op = serve::Op::kCreateSession;
  create.semantics = semantics;
  const serve::Response created =
      serve::ExecuteRequest(manager_, nullptr, create);
  const auto* id = std::get_if<serve::Response::Created>(&created.payload);
  if (id == nullptr) return 0.0;
  serve::PostReport report;
  (void)manager_.PostAnswers(id->session, answers, &report);
  const util::StatusOr<double> quality = manager_.Quality(id->session);
  (void)manager_.Close(id->session);
  const double value = quality.ok() ? *quality : 0.0;
  quality_memo_.emplace(key, value);
  return value;
}

CheckReport CheckSessions(Reference& reference,
                          const std::vector<SessionLog>& logs, int k,
                          serve::WireFormat wire) {
  reference.Prepare(logs, static_cast<int>(std::clamp(
                              std::thread::hardware_concurrency(), 1u, 4u)));
  CheckReport report;
  for (const SessionLog& log : logs) {
    CheckInvariants(log, k, &report);
    const Reference::Replay& replay = reference.ReplayOf(log);
    size_t i = 0;
    for (const Exchange& ex : log.exchanges) {
      if (IsShed(ex.response)) continue;
      serve::Response expected = replay.responses[i++];
      expected.id = ex.request.id;
      if (auto* created =
              std::get_if<serve::Response::Created>(&expected.payload)) {
        created->session = log.session;
      }
      ++report.compared;
      if (!serve::SameResponse(OnTheWire(expected, wire), ex.response)) {
        ++report.mismatches;
        if (report.errors.size() < 8) {
          report.errors.push_back("session " + log.session + " request " +
                                  ex.request.id +
                                  ": response differs from the replay");
        }
      }
    }
  }
  return report;
}

}  // namespace perfbench
