// The tentpole guarantee of the shared-everything serving design: 100+
// concurrent update_working sessions fold against ONE base database, ONE
// shared membership calculator, ONE shared PB-tree, and ONE expected_rank
// sweep table for their whole lifetime — per-session state is a sparse
// delta (overlay overrides, membership prefix columns, copy-on-write tree
// path copies, the objective's memo) whose size scales with the answers
// folded, not with the database — and every served result is
// bit-identical to running the same sessions one at a time. A quarter of
// the sessions clean toward expected_rank and a quarter toward ukranks,
// so concurrent first evaluations race to the lazily built table.
// tools/check.sh runs this suite under TSan and ASan.

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/semantics.h"
#include "data/synthetic.h"
#include "model/database.h"
#include "obs/metrics.h"
#include "pw/topk_distribution.h"
#include "serve/message.h"
#include "serve/runtime.h"
#include "serve/session_manager.h"
#include "util/status.h"
#include "util/statusor.h"

namespace ptk {
namespace {

using util::Status;
using util::StatusOr;

model::Database TestDb(int num_objects, uint64_t seed = 11) {
  data::SynOptions options;
  options.num_objects = num_objects;
  options.avg_instances = 3;
  options.value_range = 100.0;
  options.cluster_width = 30.0;
  options.seed = seed;
  return data::MakeSynDataset(options);
}

serve::SessionManager::Options ManagerOptions() {
  serve::SessionManager::Options options;
  options.k = 3;
  options.fanout = 4;
  options.selector = core::SelectorKind::kOpt;
  options.update_working = true;  // every applied answer grows a delta
  options.max_sessions = 256;
  return options;
}

// The objective of session i: entropy for even i, then expected_rank and
// ukranks in turn.
std::optional<core::SemanticsId> SemanticsOf(int i) {
  if (i % 4 == 1) return core::SemanticsId::kExpectedRank;
  if (i % 4 == 3) return core::SemanticsId::kUKRanks;
  return std::nullopt;
}

struct SessionResult {
  std::vector<std::pair<model::ObjectId, model::ObjectId>> picked;
  std::vector<std::pair<pw::ResultKey, double>> ranked;
  double quality = 0.0;
  int applied = 0;
};

// Deterministic per-session script: the handed-out pair is answered in a
// direction fixed by (session_index + round) parity, so the whole
// transcript depends only on the session index — never on interleaving.
Status RunScript(serve::SessionManager& manager, int session_index,
                 const std::string& id, int rounds, SessionResult* result) {
  for (int round = 0; round < rounds; ++round) {
    StatusOr<std::vector<core::ScoredPair>> pairs = manager.NextPairs(id, 1);
    if (!pairs.ok()) return pairs.status();
    const auto key = std::minmax((*pairs)[0].a, (*pairs)[0].b);
    result->picked.emplace_back(key.first, key.second);
    const bool forward = (session_index + round) % 2 == 0;
    serve::PostReport report;
    const std::pair<model::ObjectId, model::ObjectId> answer =
        forward ? std::make_pair(key.first, key.second)
                : std::make_pair(key.second, key.first);
    if (Status s = manager.PostAnswers(id, {answer}, &report); !s.ok()) {
      return s;
    }
    result->applied += report.applied;
  }
  StatusOr<pw::TopKDistribution> dist = manager.Distribution(id);
  if (!dist.ok()) return dist.status();
  result->ranked = dist->SortedByProbDesc();
  StatusOr<double> quality = manager.Quality(id);
  if (!quality.ok()) return quality.status();
  result->quality = *quality;
  return Status::OK();
}

TEST(SharedSessions, HundredConcurrentSessionsMatchSequentialBitwise) {
  constexpr int kSessions = 104;
  const model::Database db = TestDb(16);
  const auto rounds = [](int i) { return i % 2 + 1; };

  // Sequential baseline: all sessions created first (same id assignment
  // as the concurrent run), then each script runs to completion alone.
  std::vector<SessionResult> sequential(kSessions);
  std::vector<std::string> ids(kSessions);
  {
    serve::SessionManager manager(db, ManagerOptions());
    for (int i = 0; i < kSessions; ++i) {
      StatusOr<std::string> id = manager.CreateSession("", SemanticsOf(i));
      ASSERT_TRUE(id.ok()) << id.status().ToString();
      ids[i] = *id;
    }
    for (int i = 0; i < kSessions; ++i) {
      const Status s =
          RunScript(manager, i, ids[i], rounds(i), &sequential[i]);
      ASSERT_TRUE(s.ok()) << i << ": " << s.ToString();
    }
  }

  // Concurrent: one thread per session, all scripts in flight at once
  // against one manager — one base tree, one membership calculator, one
  // epoch domain.
  std::vector<SessionResult> concurrent(kSessions);
  {
    serve::SessionManager manager(db, ManagerOptions());
    std::vector<std::string> cids(kSessions);
    for (int i = 0; i < kSessions; ++i) {
      StatusOr<std::string> id = manager.CreateSession("", SemanticsOf(i));
      ASSERT_TRUE(id.ok()) << id.status().ToString();
      cids[i] = *id;
      ASSERT_EQ(cids[i], ids[i]);
    }
    std::vector<Status> outcomes(kSessions);
    {
      std::vector<std::thread> threads;
      threads.reserve(kSessions);
      for (int i = 0; i < kSessions; ++i) {
        threads.emplace_back([&manager, &cids, &concurrent, &outcomes, i,
                              rounds] {
          outcomes[i] =
              RunScript(manager, i, cids[i], rounds(i), &concurrent[i]);
        });
      }
      for (std::thread& t : threads) t.join();
    }
    for (int i = 0; i < kSessions; ++i) {
      ASSERT_TRUE(outcomes[i].ok()) << i << ": " << outcomes[i].ToString();
    }

    // Per-session delta memory: a session that applied answers carries a
    // nonzero delta; one that never split from the base carries none. The
    // process gauge is the sum of the per-session accounting.
    const auto report = manager.MemoryReport();
    ASSERT_EQ(report.size(), static_cast<size_t>(kSessions));
    int64_t total = 0;
    for (int i = 0; i < kSessions; ++i) {
      if (concurrent[i].applied > 0) {
        EXPECT_GT(report[i].bytes, 0) << report[i].id;
      }
      total += report[i].bytes;
    }
#if PTK_METRICS
    // The sequential manager is destroyed, so the gauge now carries only
    // this manager's sessions.
    EXPECT_EQ(obs::GetGauge("ptk_serve_session_bytes", "")->Value(), total);
#endif
  }

  // Bit-identical, not approximately equal: the same folds over {base +
  // delta} must produce the same doubles as the sequential run,
  // regardless of 104-way interleaving.
  for (int i = 0; i < kSessions; ++i) {
    EXPECT_EQ(sequential[i].picked, concurrent[i].picked) << i;
    EXPECT_EQ(sequential[i].applied, concurrent[i].applied) << i;
    ASSERT_EQ(sequential[i].ranked.size(), concurrent[i].ranked.size()) << i;
    for (size_t j = 0; j < sequential[i].ranked.size(); ++j) {
      EXPECT_EQ(sequential[i].ranked[j].first, concurrent[i].ranked[j].first)
          << "session " << i << " set " << j;
      EXPECT_EQ(sequential[i].ranked[j].second,
                concurrent[i].ranked[j].second)
          << "session " << i << " set " << j;
    }
    EXPECT_EQ(sequential[i].quality, concurrent[i].quality) << i;
  }
}

// ---------------------------------------------------------------------
// The sharded runtime keeps the same guarantee one level up: hashing
// sessions across N independent (manager, scheduler) shards serves
// responses bit-identical to one shard, and to running every session's
// script alone — the shard count is a deployment knob, never a results
// knob.

serve::Response Call(serve::Runtime& runtime, serve::Request request) {
  serve::Response out;
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  runtime.Submit(std::move(request), [&](serve::Response response) {
    std::lock_guard<std::mutex> lock(mu);
    out = std::move(response);
    done = true;
    cv.notify_all();
  });
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return done; });
  return out;
}

struct RuntimeSessionResult {
  std::vector<std::pair<model::ObjectId, model::ObjectId>> picked;
  std::vector<serve::Response::RankedSet> sets;
  double entropy = 0.0;
  double quality = 0.0;
  int applied = 0;
};

// The RunScript protocol driven through the typed serving API.
Status RunRuntimeScript(serve::Runtime& runtime, int session_index,
                        const std::string& id, int rounds,
                        RuntimeSessionResult* result) {
  for (int round = 0; round < rounds; ++round) {
    serve::Request next;
    next.op = serve::Op::kNextPairs;
    next.session = id;
    next.count = 1;
    const serve::Response pairs = Call(runtime, next);
    if (!pairs.status.ok()) return pairs.status;
    const auto& picked =
        std::get<serve::Response::Pairs>(pairs.payload).pairs;
    if (picked.empty()) return Status::Internal("no pair offered");
    const auto key = std::minmax(picked[0].a, picked[0].b);
    result->picked.emplace_back(key.first, key.second);
    const bool forward = (session_index + round) % 2 == 0;
    serve::Request post;
    post.op = serve::Op::kPostAnswers;
    post.session = id;
    post.answers = {forward ? std::make_pair(key.first, key.second)
                            : std::make_pair(key.second, key.first)};
    const serve::Response posted = Call(runtime, post);
    if (!posted.status.ok()) return posted.status;
    result->applied +=
        std::get<serve::Response::Posted>(posted.payload).report.applied;
  }
  serve::Request dist;
  dist.op = serve::Op::kDistribution;
  dist.session = id;
  const serve::Response ranked = Call(runtime, dist);
  if (!ranked.status.ok()) return ranked.status;
  const auto& payload =
      std::get<serve::Response::Distribution>(ranked.payload);
  result->sets = payload.sets;
  result->entropy = payload.entropy;
  serve::Request quality;
  quality.op = serve::Op::kQuality;
  quality.session = id;
  const serve::Response q = Call(runtime, quality);
  if (!q.status.ok()) return q.status;
  result->quality = std::get<serve::Response::Quality>(q.payload).quality;
  return Status::OK();
}

TEST(SharedSessions, ShardedRuntimeMatchesSingleShardBitwise) {
  constexpr int kSessions = 36;
  const model::Database db = TestDb(16);
  const auto rounds = [](int i) { return i % 2 + 1; };

  // One full pass of every session's script through a runtime:
  // `concurrency` drives each session from its own thread (0 = main
  // thread, one session at a time — the sequential baseline).
  const auto run_all = [&](int shards, bool concurrent,
                           std::vector<RuntimeSessionResult>* results) {
    serve::Runtime::Options options;
    options.shards = shards;
    options.manager = ManagerOptions();
    options.scheduler.workers = 3;
    options.queue_capacity = 4 * kSessions;
    serve::Runtime runtime(db, options);
    std::vector<std::string> ids(kSessions);
    for (int i = 0; i < kSessions; ++i) {
      serve::Request create;
      create.op = serve::Op::kCreateSession;
      if (const auto semantics = SemanticsOf(i)) {
        create.semantics = std::string(core::SemanticsName(*semantics));
      }
      const serve::Response created = Call(runtime, create);
      ASSERT_TRUE(created.status.ok()) << created.status.ToString();
      ids[i] =
          std::get<serve::Response::Created>(created.payload).session;
      ASSERT_EQ(ids[i], "s" + std::to_string(i + 1));
    }
    std::vector<Status> outcomes(kSessions);
    if (concurrent) {
      std::vector<std::thread> threads;
      threads.reserve(kSessions);
      for (int i = 0; i < kSessions; ++i) {
        threads.emplace_back([&, i] {
          outcomes[i] = RunRuntimeScript(runtime, i, ids[i], rounds(i),
                                         &(*results)[i]);
        });
      }
      for (std::thread& t : threads) t.join();
    } else {
      for (int i = 0; i < kSessions; ++i) {
        outcomes[i] = RunRuntimeScript(runtime, i, ids[i], rounds(i),
                                       &(*results)[i]);
      }
    }
    runtime.Shutdown();
    for (int i = 0; i < kSessions; ++i) {
      ASSERT_TRUE(outcomes[i].ok()) << i << ": " << outcomes[i].ToString();
    }
  };

  std::vector<RuntimeSessionResult> sequential(kSessions);
  run_all(1, /*concurrent=*/false, &sequential);
  std::vector<RuntimeSessionResult> one_shard(kSessions);
  run_all(1, /*concurrent=*/true, &one_shard);
  std::vector<RuntimeSessionResult> three_shards(kSessions);
  run_all(3, /*concurrent=*/true, &three_shards);

  const auto expect_same = [&](const std::vector<RuntimeSessionResult>& a,
                               const std::vector<RuntimeSessionResult>& b,
                               const char* label) {
    for (int i = 0; i < kSessions; ++i) {
      EXPECT_EQ(a[i].picked, b[i].picked) << label << " session " << i;
      EXPECT_EQ(a[i].applied, b[i].applied) << label << " session " << i;
      ASSERT_EQ(a[i].sets.size(), b[i].sets.size()) << label << " " << i;
      for (size_t j = 0; j < a[i].sets.size(); ++j) {
        EXPECT_EQ(a[i].sets[j].objects, b[i].sets[j].objects)
            << label << " session " << i << " set " << j;
        EXPECT_EQ(a[i].sets[j].p, b[i].sets[j].p)
            << label << " session " << i << " set " << j;
      }
      EXPECT_EQ(a[i].entropy, b[i].entropy) << label << " session " << i;
      EXPECT_EQ(a[i].quality, b[i].quality) << label << " session " << i;
    }
  };
  expect_same(sequential, one_shard, "1-shard");
  expect_same(sequential, three_shards, "3-shard");
}

// Per-session delta memory scales with answers folded, not with database
// size: quadrupling m must not remotely quadruple the per-session bytes
// (the only m-dependence left is the tree path length, which grows
// logarithmically).
TEST(SharedSessions, SessionMemoryScalesWithAnswersNotDatabaseSize) {
  const auto bytes_per_session = [](int num_objects) -> double {
    const model::Database db = TestDb(num_objects, /*seed=*/23);
    serve::SessionManager manager(db, ManagerOptions());
    constexpr int kSessions = 6;
    constexpr int kRounds = 2;
    int64_t total = 0;
    int counted = 0;
    for (int i = 0; i < kSessions; ++i) {
      const StatusOr<std::string> id = manager.CreateSession();
      EXPECT_TRUE(id.ok());
      SessionResult result;
      const Status s = RunScript(manager, i, *id, kRounds, &result);
      EXPECT_TRUE(s.ok()) << s.ToString();
    }
    for (const auto& session : manager.MemoryReport()) {
      if (session.bytes == 0) continue;
      total += session.bytes;
      ++counted;
    }
    EXPECT_GT(counted, 0);
    return counted == 0 ? 0.0 : static_cast<double>(total) / counted;
  };

  const double small = bytes_per_session(20);
  const double large = bytes_per_session(80);
  ASSERT_GT(small, 0.0);
  ASSERT_GT(large, 0.0);
  // 4x the objects, same answers per session: allow the logarithmic tree
  // path growth and slack, but nothing close to linear in m.
  EXPECT_LT(large, 2.5 * small)
      << "per-session delta bytes grew with m: " << small << " -> " << large;
}

// Sessions keep sharing after restarts too: closing every session drains
// the memory gauge back to zero and leaves nothing pending in the epoch
// manager's limbo (the ASan build of check.sh turns a leak here into a
// hard failure).
TEST(SharedSessions, CloseDrainsMemoryAccounting) {
  const model::Database db = TestDb(16);
  serve::SessionManager manager(db, ManagerOptions());
  std::vector<std::string> ids;
  for (int i = 0; i < 8; ++i) {
    StatusOr<std::string> id = manager.CreateSession();
    ASSERT_TRUE(id.ok());
    SessionResult result;
    ASSERT_TRUE(RunScript(manager, i, *id, 2, &result).ok());
    ids.push_back(*id);
  }
  for (const std::string& id : ids) {
    ASSERT_TRUE(manager.Close(id).ok());
  }
  EXPECT_EQ(manager.open_sessions(), 0);
  EXPECT_TRUE(manager.MemoryReport().empty());
#if PTK_METRICS
  EXPECT_EQ(obs::GetGauge("ptk_serve_session_bytes", "")->Value(), 0);
#endif
}

}  // namespace
}  // namespace ptk
