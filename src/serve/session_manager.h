#ifndef PTK_SERVE_SESSION_MANAGER_H_
#define PTK_SERVE_SESSION_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/selector.h"
#include "core/semantics.h"
#include "engine/ranking_engine.h"
#include "model/database.h"
#include "pbtree/pbtree.h"
#include "persist/session_store.h"
#include "pw/topk_distribution.h"
#include "rank/membership.h"
#include "serve/message.h"
#include "util/cancellation.h"
#include "util/epoch.h"
#include "util/status.h"
#include "util/statusor.h"

namespace ptk::serve {

/// The session layer of the serving runtime: one immutable base database,
/// shared read-only selection artifacts, and N independent cleaning
/// sessions keyed by id.
///
/// Every session owns a private engine::RankingEngine (constraint set,
/// sparse copy-on-write working delta, memoized conditioning) plus the
/// asked-pair bookkeeping of a cleaning loop. The expensive artifacts —
/// the rank::MembershipCalculator and the pbtree::PBTree on the base
/// database — are built once here, pre-warmed, and handed to every
/// session's engine via Options::shared_membership / shared_tree, so N
/// sessions pay for one membership scan and one tree build total — and
/// keep sharing them for their whole lifetime. A session that folds with
/// update_working layers per-session deltas (override prefix columns,
/// copy-on-write tree path copies reclaimed through the manager-wide
/// util::EpochManager) *over* the shared base; nothing is ever cloned,
/// and per-session memory stays O(answers folded), not O(objects).
///
/// Thread safety: all public methods are safe to call concurrently.
/// Create/lookup/close synchronize on the session-table mutex; each
/// operation on a session then serializes on that session's own mutex, so
/// operations on *different* sessions run in parallel while one session's
/// engine only ever sees one caller at a time. The shared artifacts are
/// only read through const methods that MembershipCalculator / PBTree
/// document as concurrency-safe.
///
/// Cancellation: each session carries one util::CancelSource whose token
/// is threaded into its engine's enumeration and selection hot loops. The
/// executor's deadline watchdog (serve::Scheduler) fires it from outside
/// the worker running the request; an affected operation returns
/// util::Status::Cancelled. The runtime re-arms the source as each request
/// of the session starts (it runs a session's requests one at a time) —
/// see CancelSourceFor.
class SessionManager {
 public:
  struct Options {
    /// Query shape shared by every session.
    int k = 10;
    pw::OrderMode order = pw::OrderMode::kInsensitive;
    pw::EnumeratorOptions enumerator;

    /// Ranking objective for sessions that do not name one at creation
    /// (create_session's optional `semantics` field overrides per
    /// session). The id is journaled in each session's meta and
    /// cross-checked on recovery.
    core::SemanticsId semantics = core::SemanticsId::kEntropy;

    /// Selection strategy and its knobs (see core::SelectorOptions).
    core::SelectorKind selector = core::SelectorKind::kOpt;
    int fanout = 8;
    uint64_t seed = 42;
    double rand_k_fraction = 0.2;
    int candidate_pool = 64;

    /// When true, applied answers also reweight the session's private
    /// working copy (the adaptive marginal fold); the default keeps
    /// selection on the base database (the paper's batch model), which is
    /// what lets sessions keep borrowing the shared artifacts forever.
    bool update_working = false;

    /// Admission limit: CreateSession beyond this sheds with
    /// kResourceExhausted instead of growing without bound.
    int max_sessions = 64;

    /// Durability. With a non-empty `dir`, every session journals its
    /// handed-out pairs and posted answers to a per-session write-ahead
    /// log under `<dir>/sessions/<id>/` — appended and (with `fsync`)
    /// fsynced *before* the operation is acknowledged — and periodically
    /// folds the log into a compact snapshot so replay after a restart
    /// costs O(answers since the last snapshot). RecoverSessions() brings
    /// every journaled session back bit-identically. An empty dir keeps
    /// the manager fully in-memory (the default, and the pre-existing
    /// behaviour).
    struct PersistOptions {
      std::string dir;
      /// fsync on every acknowledgement boundary. Turning this off keeps
      /// the write ordering but trades crash durability for speed (tests,
      /// benchmarks).
      bool fsync = true;
      /// Take a snapshot (and trim the WAL) after this many WAL records;
      /// <= 0 disables snapshotting (replay then re-folds the full log).
      int snapshot_every = 64;
    };
    PersistOptions persist;

    /// Test hook: when set, NextPairs obtains its selector from this
    /// factory instead of engine.MakeSelector(selector). Lets tests
    /// inject selectors with pathological streams (duplicates, stalls)
    /// that the real kinds never emit.
    std::function<std::unique_ptr<core::PairSelector>(
        engine::RankingEngine&)>
        selector_factory;
  };

  /// `db` must be finalized and outlive the manager. Builds and pre-warms
  /// the shared artifacts (one membership scan, one tree build).
  SessionManager(const model::Database& db, const Options& options);

  /// Drains the ptk_serve_sessions_open gauge for every still-open
  /// session. Without this, a manager destroyed with open sessions (every
  /// server shutdown path) leaked its count into the process-wide gauge
  /// forever, so a monitoring scrape after a manager bounce reported
  /// phantom sessions.
  ~SessionManager();

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  /// Opens a session and returns its id. Sheds with kResourceExhausted
  /// once max_sessions are open (close one and retry).
  ///
  /// An empty `id` takes the manager's next "s<N>" ("s1", "s2", ...). The
  /// sharded runtime (serve/runtime.h) assigns globally sequential ids
  /// itself — so the id stream is independent of the shard count — and
  /// places each one in its owning shard by passing it here. A
  /// currently-open duplicate id is InvalidArgument. A caller-chosen
  /// numeric "s<N>" advances the manager's own sequence past N, so the
  /// two kinds of id never collide.
  ///
  /// `semantics` overrides Options::semantics for this session. The
  /// choice is journaled in the session's meta: recovery rebuilds the
  /// session under the objective it was created with, whatever the
  /// recovering manager's default.
  util::StatusOr<std::string> CreateSession(
      const std::string& id = "",
      std::optional<core::SemanticsId> semantics = std::nullopt);

  /// Rebuilds every session journaled under Options::persist.dir: restores
  /// each one's latest snapshot, replays the WAL records past it through
  /// the same RankingEngine::Fold path that produced them (cross-checking
  /// the journaled constraint-set version after every replayed answer, so
  /// a divergent replay fails loudly instead of silently serving different
  /// state), repairs torn WAL tails, and resumes the id sequence past the
  /// recovered ids. Returns the number of sessions recovered.
  ///
  /// A non-null `filter` restricts recovery to the journaled ids it
  /// accepts — how a sharded runtime routes each persisted session to the
  /// one manager that owns it (ids it refuses are left on disk, untouched,
  /// for the other shards).
  ///
  /// Only valid on a fresh manager (before any CreateSession) with
  /// persistence configured; kFailedPrecondition otherwise, and kIoError /
  /// kInternal when a journal is unreadable or inconsistent with this
  /// manager's database and options (fingerprint or config mismatch).
  util::StatusOr<int> RecoverSessions(
      const std::function<bool(const std::string&)>& filter = nullptr);

  /// Selects up to `count` not-yet-asked pairs for the session, best
  /// first, and marks them as posted (a repeated call keeps walking down
  /// the selector's stream). Fails with kResourceExhausted when the
  /// stream has no unasked pair left, kNotFound for an unknown id, and
  /// kCancelled when the session's cancel token fires mid-selection.
  util::StatusOr<std::vector<core::ScoredPair>> NextPairs(
      const std::string& id, int count);

  /// The answers of one post_answers batch: each pair is (smaller,
  /// larger) — the first object ranks above (is smaller than) the second.
  using Answers = std::span<const std::pair<model::ObjectId, model::ObjectId>>;

  /// One post_answers batch of a PostAnswersBatched call.
  struct PostBatch {
    /// In: the batch's answers, viewed, not copied (the caller keeps them
    /// alive for the call).
    Answers answers;
    /// Out: this batch's own outcome — identical, item for item, to what
    /// the same batches issued as sequential PostAnswers calls would
    /// have reported (folds happen in list order).
    util::Status status;
    PostReport report;
  };

  /// Folds batches of crowd answers into one session's constraint set, in
  /// order, under ONE session lock, ONE engine pass and ONE journal
  /// commit (fsync / snapshot decision) — how the runtime serves a group
  /// of queued posts. Returns kNotFound (and touches no batch outcome)
  /// when the session is unknown; otherwise OK, with every batch's own
  /// result in its status/report.
  ///
  /// A batch stops at its first structural error (invalid object id);
  /// rejected-but-well-formed answers are tallied, not errors. Its report
  /// then tallies the answers folded *before* the failing one, and those
  /// stay folded and are committed with the rest. The remaining batches
  /// still run — just as they would have under sequential calls. A failed
  /// journal commit becomes the status of every batch that had succeeded.
  util::Status PostAnswersBatched(const std::string& id,
                                  std::vector<PostBatch>* batches);

  /// The one-batch case of PostAnswersBatched, with the outer kNotFound
  /// and the batch's own status folded into one. `report` is always
  /// written, never left stale: on a non-OK return it tallies the answers
  /// folded before the failure.
  util::Status PostAnswers(
      const std::string& id,
      const std::vector<std::pair<model::ObjectId, model::ObjectId>>&
          answers,
      PostReport* report);

  /// The session's conditioned top-k distribution (memoized per
  /// constraint-set version).
  util::StatusOr<pw::TopKDistribution> Distribution(const std::string& id);

  /// H(S_k | answers) for the session.
  util::StatusOr<double> Quality(const std::string& id);

  /// Closes the session; its id is never reused. kNotFound when unknown.
  util::Status Close(const std::string& id);

  /// A handle that keeps the session's CancelSource alive independent of
  /// Close() racing in; null `source` means the id was unknown. The
  /// runtime re-arms the source as each request of the session starts and
  /// hands it to the deadline watchdog.
  struct CancelHandle {
    std::shared_ptr<util::CancelSource> source;
  };
  CancelHandle CancelSourceFor(const std::string& id);

  int open_sessions() const;
  const model::Database& db() const { return *db_; }
  const Options& options() const { return options_; }

  /// Pins this manager's epoch domain: delta-tree node versions retired
  /// while the guard lives stay reachable. The runtime wraps one guard
  /// around a whole batched read group so N coalesced distribution /
  /// quality reads cost a single epoch entry instead of N.
  util::EpochManager::ReadGuard PinArtifacts() const {
    return epochs_->Enter();
  }

  /// The next value of the internal "s<N>" id sequence (1 on a fresh
  /// manager). The sharded runtime resumes its global id counter at the
  /// max across its shards after recovery.
  uint64_t next_session_number() const;

  /// Per-session delta memory, for the metrics server op and capacity
  /// tests. `bytes` is the engine's MemoryFootprint total: overlay
  /// overrides + membership delta columns + tree node copies —
  /// O(answers folded with update_working), 0 for sessions that never
  /// split from the base.
  struct SessionMemory {
    std::string id;
    uint64_t version = 0;   // engine constraint-set version
    int64_t bytes = 0;
  };
  /// Snapshot of every open session's delta memory (each session briefly
  /// locked in turn — no cross-session transaction). Total matches the
  /// ptk_serve_session_bytes gauge.
  std::vector<SessionMemory> MemoryReport() const;

 private:
  struct Session {
    // `cancel` is declared before `engine` so Arm can thread its token
    // into the engine options during construction.
    Session(const model::Database& db,
            engine::RankingEngine::Options options)
        : engine(db, Arm(std::move(options), cancel)) {}

    std::mutex mu;  // serializes all operations on this session
    util::CancelSource cancel;
    engine::RankingEngine engine;
    std::set<std::pair<model::ObjectId, model::ObjectId>> asked;

    // Delta bytes last accounted into the ptk_serve_session_bytes gauge.
    // Atomic so Close / the destructor can drain it without taking mu
    // (an in-flight fold may hold mu while the manager shuts down).
    std::atomic<int64_t> reported_bytes{0};

    // Durability state (all guarded by mu). `store` is open iff the
    // manager has persistence configured.
    persist::SessionStore store;
    int64_t records_since_snapshot = 0;

   private:
    static engine::RankingEngine::Options Arm(
        engine::RankingEngine::Options options,
        const util::CancelSource& source) {
      options.enumerator.cancel = source.token();
      return options;
    }
  };

  std::shared_ptr<Session> Find(const std::string& id) const;

  /// Admission check + table insert under mu_ (held by caller) for the
  /// given id.
  util::Status CreateSessionLocked(const std::string& id,
                                   core::SemanticsId semantics);

  /// Moves the id sequence past a numeric "s<N>" id (caller holds mu_),
  /// so a later generated id never collides with it.
  void AdvanceIdsPast(const std::string& id);

  /// Folds one batch's answers into the session (caller holds
  /// session->mu), journaling each one. Does NOT commit the journal; the
  /// caller owns the final CommitJournal.
  util::Status FoldBatch(Session* session, Answers answers,
                         PostReport* report);

  bool persist_enabled() const { return !options_.persist.dir.empty(); }

  /// Re-reads the session's delta memory and moves the
  /// ptk_serve_session_bytes gauge by the difference from the last
  /// accounting. Caller holds session->mu (reads the engine).
  void AccountSessionBytes(Session* session) const;
  /// Drains a departing session's contribution from the gauge.
  static void DrainSessionBytes(Session* session);

  /// Builds the compact durable image of a session's current state:
  /// engine constraints + version, the asked set, and (when the working
  /// copy materialized) the working marginals that differ bitwise from
  /// the base. Caller holds session->mu.
  persist::SessionSnapshot BuildSnapshot(const Session& session) const;

  /// Appends the record, advances the snapshot countdown, and — at the
  /// snapshot_every boundary — snapshots and trims. Caller holds
  /// session->mu; caller still owns the batch-final Sync().
  util::Status Journal(Session* session, persist::WalRecord record);

  /// Snapshot-or-sync decision at the end of an acknowledged batch.
  util::Status CommitJournal(Session* session);

  const model::Database* db_;
  Options options_;
  uint64_t db_fingerprint_ = 0;  // computed once when persistence is on
  std::shared_ptr<const rank::MembershipCalculator> membership_;
  std::shared_ptr<const pbtree::PBTree> tree_;
  // One reclamation domain for every session's DeltaTree: retired node
  // versions are freed once no in-flight reader (of any session) can
  // still reach them.
  std::shared_ptr<util::EpochManager> epochs_;
  // The catalog's expected_rank sweep table, shared by every session and
  // built by the first expected_rank evaluation (never by entropy).
  std::shared_ptr<core::ExpectedRankTable> rank_table_;

  mutable std::mutex mu_;  // guards sessions_ and next_id_
  std::map<std::string, std::shared_ptr<Session>> sessions_;
  uint64_t next_id_ = 1;
};

}  // namespace ptk::serve

#endif  // PTK_SERVE_SESSION_MANAGER_H_
