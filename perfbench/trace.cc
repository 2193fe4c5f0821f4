#include "trace.h"

#include <functional>
#include <map>
#include <set>

#include "engine/ranking_engine.h"
#include "pbtree/pbtree.h"
#include "persist/catalog.h"
#include "persist/session_store.h"
#include "rank/membership.h"
#include "util/epoch.h"

namespace perfbench {

namespace persist = ptk::persist;

namespace {

double MicrosSince(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

double MillisSince(Clock::time_point start) {
  return MillisBetween(start, Clock::now());
}

/// The server's journaling of one session, replayed against a store the
/// benchmark owns: SessionManager::Journal + CommitJournal.
class JournalReplay {
 public:
  JournalReplay(const std::string& root, const persist::SessionMeta& meta,
                int snapshot_every, LayerReplay* out)
      : snapshot_every_(snapshot_every), out_(out) {
    util::StatusOr<persist::SessionStore> store =
        persist::SessionStore::Create(root, meta, /*fsync_writes=*/true);
    if (store.ok()) store_ = std::move(*store);
  }

  void Append(persist::WalRecord record) {
    if (!store_.is_open()) return;
    record.seq = store_.NextSeq();
    const Clock::time_point start = Clock::now();
    (void)store_.Append(record);
    out_->append_us.push_back(MicrosSince(start));
    if (record.type == persist::WalRecord::Type::kAnswer) {
      snapshot_.constraints.emplace_back(record.smaller, record.larger);
    } else {
      snapshot_.asked.emplace_back(record.smaller, record.larger);
    }
    snapshot_.last_seq = record.seq;
    snapshot_.fold_version = record.fold_version;
    ++since_snapshot_;
  }

  void Commit() {
    if (!store_.is_open()) return;
    if (snapshot_every_ > 0 && since_snapshot_ >= snapshot_every_) {
      (void)store_.TakeSnapshot(snapshot_);
      since_snapshot_ = 0;
      return;
    }
    const Clock::time_point start = Clock::now();
    (void)store_.Sync();
    out_->fsync_ms.push_back(MillisSince(start));
  }

 private:
  persist::SessionStore store_;
  persist::SessionSnapshot snapshot_;
  int snapshot_every_;
  int since_snapshot_ = 0;
  LayerReplay* out_;
};

core::SemanticsId SemanticsOf(const SessionLog& log) {
  for (const Exchange& ex : log.exchanges) {
    if (ex.request.op == serve::Op::kCreateSession &&
        !ex.request.semantics.empty()) {
      return core::SemanticsFromName(ex.request.semantics)
          .value_or(core::SemanticsId::kEntropy);
    }
  }
  return core::SemanticsId::kEntropy;
}

}  // namespace

LayerReplay ReplayLayers(const WorkloadSpec& spec, const model::Database& db,
                         const std::vector<SessionLog>& logs,
                         const std::string& journal_root) {
  LayerReplay out;
  const serve::SessionManager::Options options = ManagerOptions(spec);
  auto membership =
      std::make_shared<ptk::rank::MembershipCalculator>(db, options.k);
  membership->ObjectTopKProbability(0);  // pre-warm, as the manager does
  ptk::pbtree::PBTree::Options tree_options;
  tree_options.fanout = options.fanout;
  auto tree = std::make_shared<const ptk::pbtree::PBTree>(db, tree_options);
  auto epochs = std::make_shared<util::EpochManager>();
  const uint64_t fingerprint =
      spec.persist ? ptk::persist::DatabaseFingerprint(db) : 0;

  std::set<std::string> seen;
  for (const SessionLog& log : logs) {
    if (!seen.insert(ScriptKey(log)).second) continue;
    ++out.sessions;
    const core::SemanticsId semantics = SemanticsOf(log);
    engine::RankingEngine::Options eo;
    eo.k = options.k;
    eo.order = options.order;
    eo.enumerator = options.enumerator;
    eo.semantics = semantics;
    eo.fanout = options.fanout;
    eo.seed = options.seed;
    eo.candidate_pool = options.candidate_pool;
    eo.shared_membership = membership;
    eo.shared_tree = tree;
    eo.epochs = epochs;
    engine::RankingEngine engine(db, eo);
    std::unique_ptr<core::RankingSemantics> objective;
    if (semantics != core::SemanticsId::kEntropy) {
      objective = core::MakeSemantics(semantics);
    }
    auto context = [&] {
      core::SemanticsContext ctx;
      ctx.base = &engine.base_db();
      ctx.working = &engine.working_db();
      ctx.k = options.k;
      ctx.order = options.order;
      return ctx;
    };

    std::unique_ptr<JournalReplay> journal;
    if (spec.persist) {
      persist::SessionMeta meta;
      meta.session_id = "replay" + std::to_string(out.sessions);
      meta.db_fingerprint = fingerprint;
      meta.k = options.k;
      meta.order = static_cast<uint8_t>(options.order);
      meta.update_working = options.update_working;
      meta.semantics = static_cast<uint8_t>(semantics);
      journal = std::make_unique<JournalReplay>(
          journal_root, meta, options.persist.snapshot_every, &out);
    }

    // A read that built the conditioned distribution (not a memo hit).
    auto timed_read = [&](const std::function<void()>& read) {
      const int64_t builds = engine.counters().enumerations;
      const Clock::time_point start = Clock::now();
      read();
      const double ms = MillisSince(start);
      if (engine.counters().enumerations > builds) {
        out.distribution_build_ms.push_back(ms);
        const util::StatusOr<ptk::pw::TopKDistribution> dist =
            engine.Distribution();
        if (dist.ok()) {
          out.distribution_sets.push_back(static_cast<double>(dist->size()));
        }
      }
    };

    for (const Exchange& ex : log.exchanges) {
      if (IsShed(ex.response) || !ex.response.status.ok()) continue;
      const serve::Request& q = ex.request;
      switch (q.op) {
        case serve::Op::kNextPairs: {
          const auto* pairs =
              std::get_if<serve::Response::Pairs>(&ex.response.payload);
          if (pairs == nullptr) break;
          for (const serve::Response::PairScore& p : pairs->pairs) {
            if (objective != nullptr) {
              const Clock::time_point start = Clock::now();
              (void)objective->PairImprovement(context(), p.a, p.b);
              out.pair_improvement_us.push_back(MicrosSince(start));
            }
            if (journal != nullptr) {
              persist::WalRecord record;
              record.type = persist::WalRecord::Type::kAsked;
              record.smaller = std::min(p.a, p.b);
              record.larger = std::max(p.a, p.b);
              record.fold_version = engine.version();
              journal->Append(record);
            }
          }
          if (journal != nullptr) journal->Commit();
          break;
        }
        case serve::Op::kPostAnswers: {
          for (const auto& [smaller, larger] : q.answers) {
            engine::RankingEngine::FoldOutcome outcome;
            const Clock::time_point start = Clock::now();
            (void)engine.Fold(smaller, larger, options.update_working,
                              &outcome);
            out.fold_us.push_back(MicrosSince(start));
            if (journal != nullptr) {
              persist::WalRecord record;
              record.type = persist::WalRecord::Type::kAnswer;
              record.smaller = smaller;
              record.larger = larger;
              record.update_working = options.update_working;
              record.fold_version = engine.version();
              journal->Append(record);
            }
          }
          // A separate objective instance sees no OnFold calls: drop its
          // memo so the next evaluation reads the folded marginals.
          if (objective != nullptr) objective->Invalidate();
          if (journal != nullptr) journal->Commit();
          break;
        }
        case serve::Op::kQuality:
          timed_read([&] { (void)engine.Quality(); });
          if (objective != nullptr) {
            const Clock::time_point start = Clock::now();
            (void)objective->Uncertainty(context());
            out.uncertainty_ms.push_back(MillisSince(start));
          }
          break;
        case serve::Op::kDistribution:
          timed_read([&] { (void)engine.Distribution(); });
          break;
        default:
          break;
      }
    }
    for (const ptk::pw::ConstraintSet::Component& c :
         engine.constraints().Components()) {
      out.max_component =
          std::max(out.max_component, static_cast<int>(c.members.size()));
    }
    if (journal != nullptr) {
      journal.reset();
      (void)persist::SessionStore::Remove(
          journal_root, "replay" + std::to_string(out.sessions));
    }
  }
  return out;
}

int MaxAnswerComponent(const std::vector<SessionLog>& logs) {
  int largest = 0;
  for (const SessionLog& log : logs) {
    std::map<model::ObjectId, model::ObjectId> parent;
    std::function<model::ObjectId(model::ObjectId)> find =
        [&](model::ObjectId x) {
          auto it = parent.find(x);
          if (it == parent.end()) {
            parent[x] = x;
            return x;
          }
          if (it->second == x) return x;
          return it->second = find(it->second);
        };
    for (const Exchange& ex : log.exchanges) {
      const auto* posted =
          std::get_if<serve::Response::Posted>(&ex.response.payload);
      if (posted == nullptr || !ex.response.status.ok()) continue;
      for (const auto& [a, b] : ex.request.answers) {
        parent[find(a)] = find(b);
      }
    }
    std::map<model::ObjectId, int> sizes;
    for (const auto& entry : parent) ++sizes[find(entry.first)];
    for (const auto& [root, size] : sizes) largest = std::max(largest, size);
  }
  return largest;
}

}  // namespace perfbench
