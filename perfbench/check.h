#ifndef PERFBENCH_CHECK_H_
#define PERFBENCH_CHECK_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "serve/message.h"
#include "serve/session_manager.h"
#include "transport.h"
#include "workload.h"

namespace perfbench {

/// One request as the client issued it and the response it got. `start`
/// is when latency starts counting: when the frame was written (closed
/// loop) or when it was due (open loop).
struct Exchange {
  serve::Request request;
  serve::Response response;
  Clock::time_point start{};
  Clock::time_point received{};
  bool measured = false;
  int64_t seq = -1;  // position in the server's request stream
};

/// The exchanges of one session, in submission order, under the id the
/// server assigned ("" when its create_session failed).
struct SessionLog {
  std::string session;
  std::vector<Exchange> exchanges;
};

/// A shed request: refused at admission, never executed.
bool IsShed(const serve::Response& response);

/// A session's admitted requests with the session-specific fields
/// (correlation tag, session id) left out: sessions with equal keys run
/// the same script.
std::string ScriptKey(const SessionLog& log);

/// The sequential in-process replay the output check compares against:
/// one serve::SessionManager with the server's options, every session's
/// admitted requests executed one after another through
/// serve::ExecuteRequest. Sessions whose admitted requests are identical
/// apart from ids replay once; the stored responses then stand for every
/// such session with its own ids patched in.
class Reference {
 public:
  /// `select_log` (nullable) receives the duration of every
  /// PairSelector::SelectPairs call the replays make. With a
  /// `journal_dir`, sessions journal there as the server's do (for service
  /// times that include the WAL); responses are the same either way.
  Reference(const model::Database& db, const WorkloadSpec& spec,
            DurationLog* select_log, const std::string& journal_dir = "");

  struct Replay {
    std::vector<serve::Response> responses;  // one per admitted request
    std::vector<double> service_ms;           // ExecuteRequest time each
  };

  /// Replays every session of `logs` whose script has no replay yet,
  /// `threads` sessions at a time (each replay itself is sequential).
  void Prepare(const std::vector<SessionLog>& logs, int threads);

  /// The replay of `log`'s admitted requests, computed on first use.
  const Replay& ReplayOf(const SessionLog& log);

  /// The session objective after folding `answers` into a fresh session
  /// of `semantics` ("" = default) — with no answers, the objective the
  /// session starts from.
  double QualityAfter(
      const std::string& semantics,
      const std::vector<std::pair<model::ObjectId, model::ObjectId>>&
          answers);

  int64_t replays() const { return static_cast<int64_t>(memo_.size()); }

 private:
  Replay Run(const SessionLog& log);

  serve::SessionManager manager_;
  std::map<std::string, Replay> memo_;
  std::map<std::string, double> quality_memo_;
};

struct CheckReport {
  int64_t compared = 0;      // responses compared bitwise
  int64_t mismatches = 0;    // responses that differ from the replay
  int64_t violations = 0;    // protocol invariants broken
  int64_t over_one = 0;      // set probabilities above 1 by rounding only
  std::vector<std::string> errors;  // the first few, for the reader
  bool ok() const { return mismatches == 0 && violations == 0; }
};

/// What a response becomes on `wire`: encoded and decoded by its codec.
/// The JSON codec prints doubles with %.9g; the binary one carries their
/// bits, so there the response comes back unchanged.
serve::Response OnTheWire(const serve::Response& response,
                          serve::WireFormat wire);

/// Replays the sessions (Reference::Prepare, one thread per core), then
/// compares every admitted response with the replay's response as the
/// server's codec would carry it (OnTheWire, then serve::SameResponse,
/// doubles bitwise) and checks the protocol invariants: response ids echo
/// request ids; no pair is handed out twice in a session; post reports
/// account for every answer and none is contradictory (answers come from
/// one possible world); distribution sets respect the limit, hold k
/// ascending object ids and probabilities in (0, 1], non-increasing (up
/// to 1e-12 of normalization rounding above 1, which is counted).
CheckReport CheckSessions(Reference& reference,
                          const std::vector<SessionLog>& logs, int k,
                          serve::WireFormat wire);

}  // namespace perfbench

#endif  // PERFBENCH_CHECK_H_
