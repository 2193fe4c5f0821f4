#include "serve/session_manager.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "persist/catalog.h"

namespace ptk::serve {

namespace {

obs::Gauge* SessionsOpenGauge() {
  static obs::Gauge* const gauge = obs::GetGauge(
      "ptk_serve_sessions_open", "Currently open serving sessions");
  return gauge;
}

obs::Counter* SessionsCreatedCounter() {
  static obs::Counter* const counter = obs::GetCounter(
      "ptk_serve_sessions_total", "Serving sessions created");
  return counter;
}

obs::Gauge* SessionBytesGauge() {
  static obs::Gauge* const gauge = obs::GetGauge(
      "ptk_serve_session_bytes",
      "Per-session delta memory (overlay + membership columns + tree "
      "copies + objective memo) summed over open sessions");
  return gauge;
}

engine::RankingEngine::Options EngineOptions(
    const SessionManager::Options& options, core::SemanticsId semantics,
    std::shared_ptr<const rank::MembershipCalculator> membership,
    std::shared_ptr<const pbtree::PBTree> tree,
    std::shared_ptr<util::EpochManager> epochs,
    std::shared_ptr<core::ExpectedRankTable> rank_table) {
  engine::RankingEngine::Options engine_options;
  engine_options.semantics = semantics;
  engine_options.k = options.k;
  engine_options.order = options.order;
  engine_options.enumerator = options.enumerator;
  engine_options.fanout = options.fanout;
  engine_options.seed = options.seed;
  engine_options.rand_k_fraction = options.rand_k_fraction;
  engine_options.candidate_pool = options.candidate_pool;
  engine_options.shared_membership = std::move(membership);
  engine_options.shared_tree = std::move(tree);
  engine_options.epochs = std::move(epochs);
  engine_options.shared_rank_table = std::move(rank_table);
  return engine_options;
}

bool SameBits(double a, double b) {
  uint64_t ab, bb;
  std::memcpy(&ab, &a, sizeof(ab));
  std::memcpy(&bb, &b, sizeof(bb));
  return ab == bb;
}

}  // namespace

SessionManager::SessionManager(const model::Database& db,
                               const Options& options)
    : db_(&db), options_(options) {
  static obs::Counter* const warm_loads = obs::GetCounter(
      "ptk_persist_catalog_warm_loads_total",
      "Pre-warm scans skipped by importing catalog artifacts");
  SessionsOpenGauge();  // register the families before any session exists
  SessionsCreatedCounter();
  SessionBytesGauge();
  const int k = std::clamp(options_.k, 1, db.num_objects());
  auto membership = std::make_shared<rank::MembershipCalculator>(db, k);

  // Catalog fast path: a previous process stored the pre-warmed singles
  // table next to the journals. Importing it replaces the full-database
  // membership scan below with a file read — valid only when the
  // fingerprint proves this is bitwise the same database and the same k.
  // The catalog is an optimization, so every failure here (missing file,
  // corrupt image, mismatch) silently falls back to the cold scan.
  std::string catalog_path;
  bool warm = false;
  if (persist_enabled()) {
    db_fingerprint_ = persist::DatabaseFingerprint(db);
    catalog_path = options_.persist.dir + "/catalog.ptk";
    util::StatusOr<persist::LoadedCatalog> catalog =
        persist::LoadCatalog(catalog_path);
    if (catalog.ok() && catalog->fingerprint == db_fingerprint_ &&
        catalog->artifacts.membership_k == k &&
        membership->ImportWarmSingles(catalog->artifacts.warm_singles)) {
      warm = true;
      warm_loads->Add();
    }
  }
  if (!warm) {
    // Pre-warm the lazily-built singles table now, single-threaded: after
    // this, every access from concurrent sessions is a pure read.
    if (db.num_objects() > 0) membership->ObjectTopKProbability(0);
    if (persist_enabled()) {
      persist::CatalogArtifacts artifacts;
      artifacts.membership_k = k;
      artifacts.warm_singles = membership->ExportWarmSingles();
      artifacts.tree_fanout = options_.fanout;
      // Best-effort: a failed save costs the next process one scan.
      (void)persist::SaveCatalog(catalog_path, db, artifacts,
                                 options_.persist.fsync);
    }
  }
  membership_ = std::move(membership);
  // The PB-tree is rebuilt, not deserialized: its bulk load is
  // deterministic and cheap next to the membership scan, and the catalog
  // records only its descriptor (fanout).
  pbtree::PBTree::Options tree_options;
  tree_options.fanout = options_.fanout;
  tree_ = std::make_shared<const pbtree::PBTree>(db, tree_options);
  epochs_ = std::make_shared<util::EpochManager>();
  // Empty until the first expected_rank evaluation builds it.
  rank_table_ = std::make_shared<core::ExpectedRankTable>(db);
}

SessionManager::~SessionManager() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [id, session] : sessions_) {
    session->cancel.RequestCancel();
    DrainSessionBytes(session.get());
  }
  SessionsOpenGauge()->Sub(static_cast<int64_t>(sessions_.size()));
  // Destroying the sessions retires their delta-tree node copies into
  // epochs_; the manager (or the last engine holding the shared_ptr)
  // drains the limbo list in the EpochManager destructor.
  sessions_.clear();
}

void SessionManager::AccountSessionBytes(Session* session) const {
  const int64_t now = session->engine.DeltaMemory().total();
  const int64_t before =
      session->reported_bytes.exchange(now, std::memory_order_acq_rel);
  if (now != before) SessionBytesGauge()->Add(now - before);
}

void SessionManager::DrainSessionBytes(Session* session) {
  const int64_t before =
      session->reported_bytes.exchange(0, std::memory_order_acq_rel);
  if (before != 0) SessionBytesGauge()->Sub(before);
}

util::Status SessionManager::CreateSessionLocked(
    const std::string& id, core::SemanticsId semantics) {
  if (static_cast<int>(sessions_.size()) >= options_.max_sessions) {
    return util::Status::ResourceExhausted(
        "session table full (" + std::to_string(options_.max_sessions) +
        " open); close a session and retry");
  }
  if (sessions_.contains(id)) {
    return util::Status::InvalidArgument("session '" + id +
                                         "' already open");
  }
  auto session = std::make_shared<Session>(
      *db_, EngineOptions(options_, semantics, membership_, tree_, epochs_,
                           rank_table_));
  if (persist_enabled()) {
    persist::SessionMeta meta;
    meta.session_id = id;
    meta.db_fingerprint = db_fingerprint_;
    meta.k = options_.k;
    meta.order = static_cast<uint8_t>(options_.order);
    meta.update_working = options_.update_working;
    meta.semantics = static_cast<uint8_t>(semantics);
    util::StatusOr<persist::SessionStore> store = persist::SessionStore::
        Create(options_.persist.dir, meta, options_.persist.fsync);
    if (!store.ok()) {
      return store.status().WithContext("create session journal");
    }
    session->store = std::move(*store);
  }
  sessions_.emplace(id, std::move(session));
  return util::Status::OK();
}

void SessionManager::AdvanceIdsPast(const std::string& id) {
  if (id.size() < 2 || id[0] != 's') return;
  char* end = nullptr;
  const unsigned long long n = std::strtoull(id.c_str() + 1, &end, 10);
  if (end != nullptr && *end == '\0' && n >= next_id_) next_id_ = n + 1;
}

util::StatusOr<std::string> SessionManager::CreateSession(
    const std::string& id, std::optional<core::SemanticsId> semantics) {
  std::string session_id = id;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // A generated id is only consumed on success: a shed create never
    // burns one.
    if (session_id.empty()) session_id = "s" + std::to_string(next_id_);
    if (util::Status s = CreateSessionLocked(
            session_id, semantics.value_or(options_.semantics));
        !s.ok()) {
      return s;
    }
    AdvanceIdsPast(session_id);
  }
  SessionsCreatedCounter()->Add();
  SessionsOpenGauge()->Add();
  return session_id;
}

std::shared_ptr<SessionManager::Session> SessionManager::Find(
    const std::string& id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : it->second;
}

persist::SessionSnapshot SessionManager::BuildSnapshot(
    const Session& session) const {
  persist::SessionSnapshot snapshot;
  snapshot.last_seq = session.store.last_seq();
  snapshot.fold_version = session.engine.version();
  for (const pw::PairwiseConstraint& c :
       session.engine.constraints().constraints()) {
    snapshot.constraints.emplace_back(c.smaller, c.larger);
  }
  snapshot.asked.assign(session.asked.begin(), session.asked.end());
  if (session.engine.working_materialized()) {
    const model::Database& working = session.engine.working_db();
    // Only overridden objects can differ from the base — the delta
    // resolves everything else to the base object — so the snapshot scan
    // is O(answers), not O(objects). The bit filter stays: an override
    // whose weights happen to equal the base bitwise carries no
    // information worth journaling.
    std::vector<model::ObjectId> candidates = working.OverriddenObjects();
    std::sort(candidates.begin(), candidates.end());
    for (const model::ObjectId oid : candidates) {
      const auto& winst = working.object(oid).instances();
      const auto& binst = db_->object(oid).instances();
      bool differs = false;
      for (size_t i = 0; i < winst.size(); ++i) {
        if (!SameBits(winst[i].prob, binst[i].prob)) {
          differs = true;
          break;
        }
      }
      if (!differs) continue;
      persist::SessionSnapshot::ObjectWeights weights;
      weights.oid = oid;
      weights.probs.reserve(winst.size());
      for (const model::Instance& inst : winst) {
        weights.probs.push_back(inst.prob);
      }
      snapshot.working.push_back(std::move(weights));
    }
  }
  return snapshot;
}

util::Status SessionManager::Journal(Session* session,
                                     persist::WalRecord record) {
  if (!session->store.is_open()) return util::Status::OK();
  record.seq = session->store.NextSeq();
  if (util::Status s = session->store.Append(record); !s.ok()) return s;
  ++session->records_since_snapshot;
  return util::Status::OK();
}

util::Status SessionManager::CommitJournal(Session* session) {
  if (!session->store.is_open()) return util::Status::OK();
  if (options_.persist.snapshot_every > 0 &&
      session->records_since_snapshot >= options_.persist.snapshot_every) {
    // Snapshot-then-trim supersedes the batch Sync: the snapshot is made
    // durable before the WAL records it covers are dropped.
    if (util::Status s = session->store.TakeSnapshot(BuildSnapshot(*session));
        !s.ok()) {
      return s;
    }
    session->records_since_snapshot = 0;
    return util::Status::OK();
  }
  // fsync-ordered acknowledgement: the batch is durable before the caller
  // sees it succeed.
  return session->store.Sync();
}

util::StatusOr<std::vector<core::ScoredPair>> SessionManager::NextPairs(
    const std::string& id, int count) {
  if (count <= 0) {
    return util::Status::InvalidArgument("next_pairs: count must be > 0");
  }
  const std::shared_ptr<Session> session = Find(id);
  if (session == nullptr) {
    return util::Status::NotFound("unknown session '" + id + "'");
  }
  obs::Span span("serve.next_pairs");
  std::lock_guard<std::mutex> lock(session->mu);
  std::unique_ptr<core::PairSelector> selector =
      options_.selector_factory != nullptr
          ? options_.selector_factory(session->engine)
          : session->engine.MakeSelector(options_.selector);
  // Over-request so already-posted pairs can be skipped, escalating until
  // the quota is met or the selector's stream is genuinely exhausted
  // (same policy as crowd::CleaningSession). All quota arithmetic is
  // 64-bit: count + asked.size() and the doubling escalation both
  // overflowed int for large sessions, flipping `request` negative.
  const int n = session->engine.working_db().num_objects();
  const long long total_pairs = static_cast<long long>(n) * (n - 1) / 2;
  std::vector<core::ScoredPair> picked;
  std::set<std::pair<model::ObjectId, model::ObjectId>> in_round;
  long long request = static_cast<long long>(count) +
                      static_cast<long long>(session->asked.size());
  request = std::min(request, total_pairs);
  for (;;) {
    const int ask = static_cast<int>(std::min<long long>(
        request, std::numeric_limits<int>::max()));
    std::vector<core::ScoredPair> candidates;
    const util::Status s = selector->SelectPairs(ask, &candidates);
    if (!s.ok()) return s;
    picked.clear();
    in_round.clear();
    for (const core::ScoredPair& pair : candidates) {
      const auto key = std::minmax(pair.a, pair.b);
      if (session->asked.contains({key.first, key.second})) continue;
      // A selector may legally emit the same pair twice in one stream;
      // handing a duplicate to the crowd within one batch wasted a
      // question slot (the dedup below against `asked` only caught pairs
      // from *earlier* batches).
      if (!in_round.insert({key.first, key.second}).second) continue;
      picked.push_back(pair);
      if (static_cast<int>(picked.size()) == count) break;
    }
    if (static_cast<int>(picked.size()) == count) break;
    const bool exhausted =
        static_cast<int>(candidates.size()) < ask || request >= total_pairs;
    if (exhausted) break;
    request = std::min(total_pairs, 2 * request);
  }
  if (picked.empty()) {
    return util::Status::ResourceExhausted(
        "no unasked pair left for session '" + id + "' (" +
        std::to_string(session->asked.size()) + " of " +
        std::to_string(total_pairs) + " pairs posted)");
  }
  // Journal the handout before acknowledging it, so the asked-pair dedup
  // survives a restart even if the answers never come back.
  for (const core::ScoredPair& pair : picked) {
    const auto key = std::minmax(pair.a, pair.b);
    persist::WalRecord record;
    record.type = persist::WalRecord::Type::kAsked;
    record.smaller = key.first;
    record.larger = key.second;
    record.update_working = false;
    record.fold_version = session->engine.version();
    if (util::Status s = Journal(session.get(), record); !s.ok()) {
      return s.WithContext("journal next_pairs");
    }
  }
  if (util::Status s = CommitJournal(session.get()); !s.ok()) {
    return s.WithContext("journal next_pairs");
  }
  for (const core::ScoredPair& pair : picked) {
    const auto key = std::minmax(pair.a, pair.b);
    session->asked.insert({key.first, key.second});
  }
  // Selection may have just built the session's delta artifacts (they are
  // lazy); fold their footprint into the memory gauge.
  AccountSessionBytes(session.get());
  return picked;
}

util::Status SessionManager::FoldBatch(Session* session, Answers answers,
                                       PostReport* report) {
  util::Status status = util::Status::OK();
  for (const auto& [smaller, larger] : answers) {
    engine::RankingEngine::FoldOutcome outcome;
    status = session->engine.Fold(smaller, larger, options_.update_working,
                                  &outcome);
    if (!status.ok()) break;
    switch (outcome) {
      case engine::RankingEngine::FoldOutcome::kApplied:
        ++report->applied;
        break;
      case engine::RankingEngine::FoldOutcome::kContradictory:
        ++report->contradictory;
        break;
      case engine::RankingEngine::FoldOutcome::kDegenerate:
        ++report->degenerate;
        break;
    }
    const auto key = std::minmax(smaller, larger);
    session->asked.insert({key.first, key.second});
    // Journal every well-formed answer — rejected ones included, since
    // they also entered the asked set and replay must reproduce the same
    // skip decisions. fold_version is post-fold: unchanged for a rejected
    // answer, bumped for an applied one; replay cross-checks it.
    persist::WalRecord record;
    record.type = persist::WalRecord::Type::kAnswer;
    record.smaller = smaller;
    record.larger = larger;
    record.update_working = options_.update_working;
    record.fold_version = session->engine.version();
    status = Journal(session, record);
    if (!status.ok()) {
      status = status.WithContext("journal post_answers");
      break;
    }
  }
  report->version = session->engine.version();
  return status;
}

util::Status SessionManager::PostAnswersBatched(
    const std::string& id, std::vector<PostBatch>* batches) {
  const std::shared_ptr<Session> session = Find(id);
  if (session == nullptr) {
    return util::Status::NotFound("unknown session '" + id + "'");
  }
  obs::Span span("serve.post_answers");
  std::lock_guard<std::mutex> lock(session->mu);
  // Folds run in list order, so every batch's report is identical to what
  // sequential one-batch calls would have produced; a mid-batch failure
  // stops that batch only, exactly like its own call would have.
  for (PostBatch& batch : *batches) {
    batch.report = PostReport{};
    batch.status = FoldBatch(session.get(), batch.answers, &batch.report);
  }
  // One journal commit (fsync or snapshot) for every batch. Even a
  // partially failed batch commits what it journaled: its report tells
  // the caller which answers took effect, and those must be as durable as
  // a fully successful batch. A commit failure poisons every batch that
  // thought it succeeded — their durability claim is what just failed.
  if (util::Status s = CommitJournal(session.get()); !s.ok()) {
    for (PostBatch& batch : *batches) {
      if (batch.status.ok()) {
        batch.status = s.WithContext("journal post_answers");
      }
    }
  }
  // Folds grow the session's delta (overrides, columns, node copies);
  // re-account its share of the memory gauge while mu is still held.
  AccountSessionBytes(session.get());
  return util::Status::OK();
}

util::Status SessionManager::PostAnswers(
    const std::string& id,
    const std::vector<std::pair<model::ObjectId, model::ObjectId>>& answers,
    PostReport* report) {
  std::vector<PostBatch> batches(1);
  batches[0].answers = answers;
  const util::Status found = PostAnswersBatched(id, &batches);
  *report = batches[0].report;
  return found.ok() ? batches[0].status : found;
}

util::StatusOr<pw::TopKDistribution> SessionManager::Distribution(
    const std::string& id) {
  const std::shared_ptr<Session> session = Find(id);
  if (session == nullptr) {
    return util::Status::NotFound("unknown session '" + id + "'");
  }
  std::lock_guard<std::mutex> lock(session->mu);
  return session->engine.Distribution();
}

util::StatusOr<double> SessionManager::Quality(const std::string& id) {
  const std::shared_ptr<Session> session = Find(id);
  if (session == nullptr) {
    return util::Status::NotFound("unknown session '" + id + "'");
  }
  std::lock_guard<std::mutex> lock(session->mu);
  return session->engine.Quality();
}

util::Status SessionManager::Close(const std::string& id) {
  std::shared_ptr<Session> session;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = sessions_.find(id);
    if (it == sessions_.end()) {
      return util::Status::NotFound("unknown session '" + id + "'");
    }
    session = std::move(it->second);
    sessions_.erase(it);
  }
  // An in-flight operation may still hold the session alive; unblock it
  // rather than leaving it running against a closed session.
  session->cancel.RequestCancel();
  DrainSessionBytes(session.get());
  if (persist_enabled()) {
    // A closed session's journal is dead state: wait out any in-flight
    // operation, release the WAL, and drop the directory.
    std::lock_guard<std::mutex> lock(session->mu);
    session->store = persist::SessionStore();
    if (util::Status s =
            persist::SessionStore::Remove(options_.persist.dir, id);
        !s.ok()) {
      SessionsOpenGauge()->Sub();
      return s;
    }
  }
  SessionsOpenGauge()->Sub();
  // Destroy the session now (unless an in-flight operation still holds
  // it): its engine retires the delta-tree node copies into epochs_, and
  // the Reclaim frees every retired version no in-flight reader of any
  // session can still reach.
  session.reset();
  epochs_->Reclaim();
  return util::Status::OK();
}

util::StatusOr<int> SessionManager::RecoverSessions(
    const std::function<bool(const std::string&)>& filter) {
  static obs::Counter* const recovered_sessions = obs::GetCounter(
      "ptk_persist_recovery_sessions_total",
      "Sessions rebuilt from their journals at startup");
  static obs::Counter* const replayed = obs::GetCounter(
      "ptk_persist_recovery_replayed_total",
      "WAL records replayed during session recovery");
  static obs::Histogram* const recovery_seconds = obs::GetHistogram(
      "ptk_persist_recovery_seconds",
      "Per-session journal recovery (snapshot restore + WAL replay)");
  if (!persist_enabled()) {
    return util::Status::FailedPrecondition(
        "RecoverSessions: no persist dir configured");
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (!sessions_.empty() || next_id_ != 1) {
    return util::Status::FailedPrecondition(
        "RecoverSessions: manager already served sessions (recovery must "
        "run first)");
  }
  util::StatusOr<std::vector<std::string>> ids =
      persist::SessionStore::ListSessionIds(options_.persist.dir);
  if (!ids.ok()) return ids.status();

  int count = 0;
  for (const std::string& id : *ids) {
    // Not this caller's shard: leave the journal on disk untouched.
    if (filter && !filter(id)) continue;
    obs::ScopedTimer timer(recovery_seconds);
    util::StatusOr<persist::RecoveredSession> recovered =
        persist::SessionStore::OpenExisting(options_.persist.dir, id,
                                            options_.persist.fsync);
    if (!recovered.ok()) return recovered.status();

    // Replaying against a different database or engine configuration
    // would not land bit-identically; refuse loudly.
    const persist::SessionMeta& meta = recovered->meta;
    if (meta.db_fingerprint != db_fingerprint_) {
      return util::Status::FailedPrecondition(
          "session '" + id + "': journal was written against a different "
          "database (fingerprint mismatch)");
    }
    if (meta.k != options_.k ||
        meta.order != static_cast<uint8_t>(options_.order) ||
        meta.update_working != options_.update_working) {
      return util::Status::FailedPrecondition(
          "session '" + id + "': journal was written under a different "
          "engine configuration (k/order/update_working mismatch)");
    }
    // Rebuild under the objective the session was created with — replay
    // must re-run the folds (working-copy decision included) exactly as
    // the writer did. A byte this build cannot map is a refusal, not a
    // fallback: recovering under a substituted objective would diverge
    // silently.
    const std::optional<core::SemanticsId> semantics =
        core::SemanticsFromWire(meta.semantics);
    if (!semantics.has_value()) {
      return util::Status::FailedPrecondition(
          "session '" + id + "': journal names unknown ranking semantics " +
          std::to_string(static_cast<int>(meta.semantics)));
    }

    auto session = std::make_shared<Session>(
        *db_,
        EngineOptions(options_, *semantics, membership_, tree_, epochs_,
                      rank_table_));
    uint64_t replay_from = 0;
    if (recovered->snapshot.has_value()) {
      const persist::SessionSnapshot& snapshot = *recovered->snapshot;
      replay_from = snapshot.last_seq;
      std::vector<engine::RankingEngine::RestoredWeights> working;
      working.reserve(snapshot.working.size());
      for (const persist::SessionSnapshot::ObjectWeights& weights :
           snapshot.working) {
        working.push_back({weights.oid, weights.probs});
      }
      if (util::Status s = session->engine.RestoreSnapshot(
              snapshot.constraints, snapshot.fold_version, working);
          !s.ok()) {
        return s.WithContext("session '" + id + "': restore snapshot");
      }
      session->asked.insert(snapshot.asked.begin(), snapshot.asked.end());
    }

    int64_t kept_records = 0;
    for (const persist::WalRecord& record : recovered->records) {
      if (record.seq <= replay_from) continue;  // the snapshot covers it
      ++kept_records;
      const auto key = std::minmax(record.smaller, record.larger);
      if (record.type == persist::WalRecord::Type::kAsked) {
        session->asked.insert({key.first, key.second});
        continue;
      }
      engine::RankingEngine::FoldOutcome outcome;
      if (util::Status s =
              session->engine.Fold(record.smaller, record.larger,
                                   record.update_working, &outcome);
          !s.ok()) {
        return s.WithContext("session '" + id + "': replay seq " +
                             std::to_string(record.seq));
      }
      if (session->engine.version() != record.fold_version) {
        return util::Status::Internal(
            "session '" + id + "': replay diverged at seq " +
            std::to_string(record.seq) + " (constraint version " +
            std::to_string(session->engine.version()) + ", journal says " +
            std::to_string(record.fold_version) + ")");
      }
      session->asked.insert({key.first, key.second});
      replayed->Add();
    }

    session->store = std::move(recovered->store);
    session->records_since_snapshot = kept_records;
    // A recovered session with restored working weights already carries a
    // delta over the shared base; start its memory accounting now.
    AccountSessionBytes(session.get());
    sessions_.emplace(id, std::move(session));

    AdvanceIdsPast(id);

    recovered_sessions->Add();
    SessionsOpenGauge()->Add();
    ++count;
  }
  return count;
}

SessionManager::CancelHandle SessionManager::CancelSourceFor(
    const std::string& id) {
  CancelHandle handle;
  if (std::shared_ptr<Session> session = Find(id)) {
    handle.source =
        std::shared_ptr<util::CancelSource>(session, &session->cancel);
  }
  return handle;
}

int SessionManager::open_sessions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(sessions_.size());
}

uint64_t SessionManager::next_session_number() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_;
}

std::vector<SessionManager::SessionMemory> SessionManager::MemoryReport()
    const {
  std::vector<std::shared_ptr<Session>> sessions;
  std::vector<SessionMemory> report;
  {
    std::lock_guard<std::mutex> lock(mu_);
    report.reserve(sessions_.size());
    sessions.reserve(sessions_.size());
    for (const auto& [id, session] : sessions_) {
      report.push_back({id, 0, 0});
      sessions.push_back(session);
    }
  }
  // Lock each session outside the table lock (same order every operation
  // takes them: table, then session), refreshing the gauge on the way.
  for (size_t i = 0; i < sessions.size(); ++i) {
    std::lock_guard<std::mutex> lock(sessions[i]->mu);
    AccountSessionBytes(sessions[i].get());
    report[i].version = sessions[i]->engine.version();
    report[i].bytes =
        sessions[i]->reported_bytes.load(std::memory_order_acquire);
  }
  return report;
}

}  // namespace ptk::serve
