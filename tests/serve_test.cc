// The concurrent serving layer (src/serve/): session manager and the
// JSON-lines protocol. The runtime in front of them (admission, grouping,
// deadlines) is tested in runtime_test.
//
// The load-bearing guarantee is pinned by ConcurrentMatchesSequential: N
// sessions driven from concurrent threads produce results bit-identical
// to the same operations run back-to-back on one thread — sharing the
// base artifacts buys throughput, never different answers. The suite is
// run under TSan by tools/check.sh.

#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "engine/ranking_engine.h"
#include "pbtree/delta_tree.h"
#include "pbtree/pbtree.h"
#include "rank/membership.h"
#include "serve/codec.h"
#include "serve/message.h"
#include "serve/protocol.h"
#include "serve/session_manager.h"
#include "util/cancellation.h"
#include "util/status.h"
#include "util/statusor.h"

namespace ptk {
namespace {

using util::Status;
using util::StatusOr;

model::Database TestDb(int num_objects = 16) {
  data::SynOptions options;
  options.num_objects = num_objects;
  options.avg_instances = 3;
  options.value_range = 100.0;
  options.cluster_width = 30.0;  // overlapping clusters: real uncertainty
  options.seed = 7;
  return data::MakeSynDataset(options);
}

serve::SessionManager::Options ManagerOptions(int k = 4) {
  serve::SessionManager::Options options;
  options.k = k;
  options.fanout = 4;
  return options;
}

/// The deterministic "crowd": ranks by expected value.
std::vector<std::pair<model::ObjectId, model::ObjectId>> AnswerByExpectation(
    const model::Database& db, const std::vector<core::ScoredPair>& pairs) {
  std::vector<std::pair<model::ObjectId, model::ObjectId>> answers;
  for (const core::ScoredPair& pair : pairs) {
    const bool a_smaller =
        db.object(pair.a).ExpectedValue() <= db.object(pair.b).ExpectedValue();
    answers.emplace_back(a_smaller ? pair.a : pair.b,
                         a_smaller ? pair.b : pair.a);
  }
  return answers;
}

struct SessionResult {
  std::vector<std::pair<pw::ResultKey, double>> ranked;
  double quality = 0.0;
};

// The per-session script: (session_index % 3) + 1 rounds of select-2 /
// answer / fold, then read distribution and quality.
Status RunScript(serve::SessionManager& manager, const model::Database& db,
                 int session_index, const std::string& id,
                 SessionResult* result) {
  const int rounds = session_index % 3 + 1;
  for (int round = 0; round < rounds; ++round) {
    StatusOr<std::vector<core::ScoredPair>> pairs = manager.NextPairs(id, 2);
    if (!pairs.ok()) return pairs.status();
    serve::PostReport report;
    if (Status s = manager.PostAnswers(id, AnswerByExpectation(db, *pairs),
                                       &report);
        !s.ok()) {
      return s;
    }
  }
  StatusOr<pw::TopKDistribution> dist = manager.Distribution(id);
  if (!dist.ok()) return dist.status();
  result->ranked = dist->SortedByProbDesc();
  StatusOr<double> quality = manager.Quality(id);
  if (!quality.ok()) return quality.status();
  result->quality = *quality;
  return Status::OK();
}

TEST(SessionManagerTest, ConcurrentMatchesSequential) {
  constexpr int kSessions = 8;
  const model::Database db = TestDb();

  // Sequential baseline: one session at a time, direct manager calls.
  std::vector<SessionResult> sequential(kSessions);
  {
    serve::SessionManager manager(db, ManagerOptions());
    for (int i = 0; i < kSessions; ++i) {
      StatusOr<std::string> id = manager.CreateSession();
      ASSERT_TRUE(id.ok()) << id.status().ToString();
      ASSERT_TRUE(
          RunScript(manager, db, i, *id, &sequential[i]).ok());
    }
  }

  // Concurrent: every session's whole script runs on its own thread,
  // all against one manager.
  std::vector<SessionResult> concurrent(kSessions);
  {
    serve::SessionManager manager(db, ManagerOptions());
    std::vector<std::string> ids;
    for (int i = 0; i < kSessions; ++i) {
      StatusOr<std::string> id = manager.CreateSession();
      ASSERT_TRUE(id.ok()) << id.status().ToString();
      ids.push_back(*id);
    }
    std::vector<Status> outcomes(kSessions);
    std::vector<std::thread> threads;
    for (int i = 0; i < kSessions; ++i) {
      threads.emplace_back([&, i] {
        outcomes[i] = RunScript(manager, db, i, ids[i], &concurrent[i]);
      });
    }
    for (std::thread& thread : threads) thread.join();
    for (int i = 0; i < kSessions; ++i) {
      ASSERT_TRUE(outcomes[i].ok()) << i << ": " << outcomes[i].ToString();
    }
  }

  for (int i = 0; i < kSessions; ++i) {
    ASSERT_EQ(sequential[i].ranked.size(), concurrent[i].ranked.size());
    for (size_t j = 0; j < sequential[i].ranked.size(); ++j) {
      EXPECT_EQ(sequential[i].ranked[j].first, concurrent[i].ranked[j].first)
          << "session " << i << " set " << j;
      // Bit-identical, not approximately equal: same operations, same
      // summation order, regardless of interleaving.
      EXPECT_EQ(sequential[i].ranked[j].second,
                concurrent[i].ranked[j].second)
          << "session " << i << " set " << j;
    }
    EXPECT_EQ(sequential[i].quality, concurrent[i].quality) << i;
  }
}

TEST(SessionManagerTest, SharedArtifactsStaySharedAcrossMaterialization) {
  const model::Database db = TestDb(10);
  auto membership = std::make_shared<rank::MembershipCalculator>(db, 4);
  auto tree = std::make_shared<const pbtree::PBTree>(db);

  engine::RankingEngine::Options options;
  options.k = 4;
  options.fanout = tree->fanout();
  options.shared_membership = membership;
  options.shared_tree = tree;
  engine::RankingEngine engine(db, options);

  EXPECT_EQ(engine.membership().get(), membership.get());
  EXPECT_EQ(&engine.tree(), tree.get());
  EXPECT_EQ(engine.DeltaMemory().total(), 0);

  // An update_working fold materializes the sparse working delta. The
  // engine now serves per-session *delta* artifacts, but those stay
  // layered over the shared base: the delta calculator wraps the shared
  // calculator, the delta tree wraps the shared tree, and the session's
  // own memory is bounded by its answers, not the database size.
  engine::RankingEngine::FoldOutcome outcome;
  ASSERT_TRUE(engine.Fold(0, 1, /*update_working=*/true, &outcome).ok());
  ASSERT_EQ(outcome, engine::RankingEngine::FoldOutcome::kApplied);
  const auto delta_membership = engine.membership();
  EXPECT_NE(delta_membership.get(), membership.get());
  EXPECT_EQ(delta_membership->base_calc(), membership.get());
  const pbtree::TreeReader& delta_tree = engine.tree();
  EXPECT_NE(&delta_tree, tree.get());
  const auto* as_delta = dynamic_cast<const pbtree::DeltaTree*>(&delta_tree);
  ASSERT_NE(as_delta, nullptr);
  EXPECT_EQ(&as_delta->base(), tree.get());
  EXPECT_GT(engine.DeltaMemory().total(), 0);
}

TEST(SessionManagerTest, LifecycleAndAdmission) {
  const model::Database db = TestDb(8);
  serve::SessionManager::Options options = ManagerOptions(3);
  options.max_sessions = 2;
  serve::SessionManager manager(db, options);

  StatusOr<std::string> s1 = manager.CreateSession();
  StatusOr<std::string> s2 = manager.CreateSession();
  ASSERT_TRUE(s1.ok() && s2.ok());
  EXPECT_EQ(manager.open_sessions(), 2);

  const StatusOr<std::string> s3 = manager.CreateSession();
  EXPECT_EQ(s3.status().code(), Status::Code::kResourceExhausted);

  EXPECT_EQ(manager.NextPairs("nope", 1).status().code(),
            Status::Code::kNotFound);
  EXPECT_EQ(manager.Quality("nope").status().code(), Status::Code::kNotFound);

  ASSERT_TRUE(manager.Close(*s1).ok());
  EXPECT_EQ(manager.Close(*s1).code(), Status::Code::kNotFound);
  EXPECT_EQ(manager.open_sessions(), 1);
  // Ids are never reused; the freed slot admits a fresh session.
  const StatusOr<std::string> s4 = manager.CreateSession();
  ASSERT_TRUE(s4.ok());
  EXPECT_NE(*s4, *s1);
}

TEST(SessionManagerTest, PairStreamExhaustionIsResourceExhausted) {
  const model::Database db = TestDb(4);  // 6 pairs total
  serve::SessionManager manager(db, ManagerOptions(2));
  const StatusOr<std::string> id = manager.CreateSession();
  ASSERT_TRUE(id.ok());
  int delivered = 0;
  for (;;) {
    StatusOr<std::vector<core::ScoredPair>> pairs = manager.NextPairs(*id, 2);
    if (!pairs.ok()) {
      EXPECT_EQ(pairs.status().code(), Status::Code::kResourceExhausted);
      break;
    }
    delivered += static_cast<int>(pairs->size());
    ASSERT_LE(delivered, 6);
  }
  EXPECT_GT(delivered, 0);
}

TEST(SessionManagerTest, CancellationAbortsSelectionCleanly) {
  const model::Database db = TestDb();
  serve::SessionManager manager(db, ManagerOptions());
  const StatusOr<std::string> id = manager.CreateSession();
  ASSERT_TRUE(id.ok());

  const serve::SessionManager::CancelHandle handle =
      manager.CancelSourceFor(*id);
  ASSERT_NE(handle.source, nullptr);
  EXPECT_EQ(manager.CancelSourceFor("nope").source, nullptr);

  handle.source->RequestCancel();
  EXPECT_EQ(manager.NextPairs(*id, 1).status().code(),
            Status::Code::kCancelled);

  // Re-armed, the same session serves again — cancellation left no
  // residue in the engine.
  handle.source->Reset();
  const StatusOr<std::vector<core::ScoredPair>> pairs =
      manager.NextPairs(*id, 1);
  ASSERT_TRUE(pairs.ok()) << pairs.status().ToString();
  EXPECT_EQ(pairs->size(), 1u);
}

TEST(ProtocolTest, ParsesAndValidatesStrictly) {
  const serve::Codec& json =
      serve::CodecFor(serve::WireFormat::kJsonLines);
  serve::Request ok;
  ASSERT_TRUE(json.DecodeRequest(
                      R"({"op":"post_answers","session":"s1","id":"x7",)"
                      R"("deadline_ms":250,"answers":[[2,0],[1,3]]})",
                      &ok)
                  .ok());
  EXPECT_EQ(ok.op, serve::Op::kPostAnswers);
  EXPECT_EQ(ok.session, "s1");
  EXPECT_EQ(ok.id, "x7");
  EXPECT_EQ(ok.deadline_ms, 250);
  ASSERT_EQ(ok.answers.size(), 2u);
  EXPECT_EQ(ok.answers[0], (std::pair<model::ObjectId, model::ObjectId>{
                               2, 0}));

  // Strictness: unknown keys, missing op, trailing garbage, malformed
  // numbers, negative ids, out-of-bound fields (RequestLimits) — all
  // InvalidArgument, never silently dropped.
  const char* bad[] = {
      R"({"op":"quality","session":"s1","frobnicate":1})",
      R"({"session":"s1"})",
      R"({"op":"quality"} trailing)",
      R"({"op":"next_pairs","count":1.5})",
      R"({"op":"next_pairs","count":0})",
      R"({"op":"post_answers","answers":[[1,-2]]})",
      R"(not json at all)",
      R"({"op":"quality","deadline_ms":-4})",
      R"({"op":"next_pairs","session":"s1","count":4097})",
      R"({"op":"distribution","session":"s1","limit":1048577})",
      R"({"op":"quality","session":"s1","deadline_ms":3600001})",
  };
  for (const char* line : bad) {
    serve::Request request;
    EXPECT_EQ(json.DecodeRequest(line, &request).code(),
              Status::Code::kInvalidArgument)
        << line;
  }

  // Unknown op still yields the correlation tag, so the transport can
  // echo it in the error response (pinned by tools/serve_smoke.golden).
  serve::Request unknown;
  const Status status =
      json.DecodeRequest(R"({"op":"bogus","id":"i"})", &unknown);
  EXPECT_EQ(status.code(), Status::Code::kInvalidArgument);
  EXPECT_EQ(unknown.id, "i");
}

TEST(ProtocolTest, ExecutesOpsAgainstManager) {
  const model::Database db = TestDb(8);
  serve::SessionManager manager(db, ManagerOptions(3));
  const serve::Codec& json =
      serve::CodecFor(serve::WireFormat::kJsonLines);

  auto run = [&](const std::string& line) -> serve::Response {
    serve::Request request;
    Status decoded = json.DecodeRequest(line, &request);
    if (!decoded.ok()) {
      return serve::ErrorResponse(request.id, std::move(decoded));
    }
    return serve::ExecuteRequest(manager, nullptr, request);
  };

  const serve::Response created = run(R"({"op":"create_session"})");
  ASSERT_TRUE(created.status.ok()) << created.status.ToString();
  EXPECT_EQ(std::get<serve::Response::Created>(created.payload).session,
            "s1");

  const serve::Response pairs =
      run(R"({"op":"next_pairs","session":"s1","count":1})");
  ASSERT_TRUE(pairs.status.ok()) << pairs.status.ToString();
  EXPECT_EQ(std::get<serve::Response::Pairs>(pairs.payload).pairs.size(),
            1u);

  const serve::Response posted =
      run(R"({"op":"post_answers","session":"s1","answers":[[0,1]]})");
  ASSERT_TRUE(posted.status.ok()) << posted.status.ToString();
  EXPECT_EQ(std::get<serve::Response::Posted>(posted.payload).report.version,
            1u);

  const serve::Response quality = run(R"({"op":"quality","session":"s1"})");
  ASSERT_TRUE(quality.status.ok());
  EXPECT_GT(std::get<serve::Response::Quality>(quality.payload).quality,
            0.0);

  const serve::Response metrics = run(R"({"op":"metrics"})");
  ASSERT_TRUE(metrics.status.ok());
  const auto& m = std::get<serve::Response::Metrics>(metrics.payload);
  EXPECT_EQ(m.sessions_open, 1);
  ASSERT_EQ(m.session_bytes.size(), 1u);
  EXPECT_EQ(m.session_bytes[0].session, "s1");
  EXPECT_FALSE(m.has_scheduler);
  // Rendered without a scheduler, the metrics line carries no scheduler
  // fields — the legacy single-manager shape.
  EXPECT_EQ(json.EncodeResponse(metrics),
            "{\"ok\":true,\"sessions_open\":1,"
            "\"session_bytes\":{\"s1\":0},\"session_bytes_total\":0}\n");

  ASSERT_TRUE(run(R"({"op":"close","session":"s1"})").status.ok());
  EXPECT_EQ(run(R"({"op":"quality","session":"s1"})").status.code(),
            Status::Code::kNotFound);

  // Error rendering carries the stable code name and the id tag.
  EXPECT_EQ(json.EncodeResponse(serve::ErrorResponse(
                "x1", Status::NotFound("unknown session 's9'"))),
            "{\"id\":\"x1\",\"ok\":false,\"error\":{\"code\":\"NotFound\","
            "\"message\":\"unknown session 's9'\"}}\n");
  serve::Response bare;
  bare.payload = serve::Response::Quality{0.5};
  EXPECT_EQ(json.EncodeResponse(bare), "{\"ok\":true,\"quality\":0.5}\n");
}

}  // namespace
}  // namespace ptk
