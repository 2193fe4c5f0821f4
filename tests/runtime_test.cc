// The sharded, coalescing serving runtime (src/serve/runtime.h).
//
// The load-bearing guarantees:
//   * bit-identity — the same request stream produces SameResponse-equal
//     transcripts through the runtime, on 1 shard or N and 1 worker or
//     several, and through one manager driven a request at a time (the
//     big-N version lives in shared_sessions_test; check.sh also pins the
//     server transcript at --shards 2 and --workers 4 --shards 3 against
//     the golden);
//   * grouping really groups — posts queued behind a busy session merge
//     into one engine pass, idle-session reads join one batch — without
//     reordering or overlapping any session's requests;
//   * deadlines reach every item: an item that expired while queued is
//     not executed, a running selection or read is cancelled at its
//     deadline, and the session serves normally afterwards;
//   * admission sheds with a structured retry_after_ms hint, inline.
// The suite is run under TSan and ASan by tools/check.sh.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/selector.h"
#include "data/synthetic.h"
#include "engine/ranking_engine.h"
#include "obs/metrics.h"
#include "serve/message.h"
#include "serve/protocol.h"
#include "serve/runtime.h"
#include "util/cancellation.h"
#include "util/status.h"
#include "util/statusor.h"

namespace ptk {
namespace {

using serve::Op;
using serve::Request;
using serve::Response;
using serve::Runtime;
using util::Status;

model::Database TestDb(int num_objects = 12) {
  data::SynOptions options;
  options.num_objects = num_objects;
  options.avg_instances = 3;
  options.value_range = 100.0;
  options.cluster_width = 30.0;
  options.seed = 7;
  return data::MakeSynDataset(options);
}

Runtime::Options BaseOptions() {
  Runtime::Options options;
  options.manager.k = 3;
  options.manager.fanout = 4;
  options.scheduler.workers = 2;
  options.queue_capacity = 64;
  return options;
}

Request Make(Op op, std::string id, std::string session = "") {
  Request request;
  request.op = op;
  request.id = std::move(id);
  request.session = std::move(session);
  return request;
}

// Submits the whole script in order and waits for every response.
std::vector<Response> RunThrough(Runtime& runtime,
                                 const std::vector<Request>& script) {
  std::vector<Response> responses(script.size());
  std::mutex mu;
  std::condition_variable cv;
  size_t completed = 0;
  for (size_t i = 0; i < script.size(); ++i) {
    runtime.Submit(script[i], [&, i](Response response) {
      std::lock_guard<std::mutex> lock(mu);
      responses[i] = std::move(response);
      ++completed;
      cv.notify_all();
    });
  }
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return completed == script.size(); });
  return responses;
}

// Four sessions created up front, then their op streams interleaved
// round-robin — maximal opportunity for cross-session read batching and
// same-session post merging, plus a NotFound probe.
std::vector<Request> EquivalenceScript() {
  std::vector<Request> script;
  for (int s = 0; s < 4; ++s) {
    script.push_back(Make(Op::kCreateSession, "c" + std::to_string(s)));
  }
  const std::vector<std::vector<std::pair<model::ObjectId,
                                          model::ObjectId>>> posts = {
      {{0, 1}}, {{1, 2}}, {{2, 3}}};
  for (size_t round = 0; round < posts.size(); ++round) {
    for (int s = 0; s < 4; ++s) {
      const std::string session = "s" + std::to_string(s + 1);
      const std::string tag = session + "." + std::to_string(round);
      if (round == 0) {
        Request pairs = Make(Op::kNextPairs, "n" + tag, session);
        pairs.count = 2;
        script.push_back(pairs);
      }
      Request post = Make(Op::kPostAnswers, "a" + tag, session);
      post.answers = posts[round];
      script.push_back(post);
      Request dist = Make(Op::kDistribution, "d" + tag, session);
      dist.limit = 3;
      script.push_back(dist);
      script.push_back(Make(Op::kQuality, "q" + tag, session));
    }
  }
  script.push_back(Make(Op::kQuality, "ghost", "s99"));
  return script;
}

void ExpectSameTranscript(const std::vector<Response>& a,
                          const std::vector<Response>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(serve::SameResponse(a[i], b[i]))
        << "transcripts diverge at request " << i << " (id '" << a[i].id
        << "')";
  }
}

// The reference is one SessionManager driven one request at a time, as
// perfbench's replay check drives it: every shard count and worker count
// must answer the interleaved script bit-identically.
TEST(RuntimeTest, MatchesSequentialManager) {
  const model::Database db = TestDb();
  const std::vector<Request> script = EquivalenceScript();

  serve::SessionManager reference(db, BaseOptions().manager);
  std::vector<Response> expected;
  for (const Request& request : script) {
    expected.push_back(serve::ExecuteRequest(reference, nullptr, request));
  }
  EXPECT_EQ(expected.back().status.code(), Status::Code::kNotFound);

  for (const int shards : {1, 3}) {
    for (const int workers : {1, 4}) {
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " workers=" + std::to_string(workers));
      Runtime::Options options = BaseOptions();
      options.shards = shards;
      options.scheduler.workers = workers;
      Runtime runtime(db, options);
      ExpectSameTranscript(expected, RunThrough(runtime, script));
      // Every admitted request left the queue: merged items included.
      const Response metrics =
          RunThrough(runtime, {Make(Op::kMetrics, "m")})[0];
      EXPECT_EQ(std::get<Response::Metrics>(metrics.payload).queue_depth, 0);
      runtime.Shutdown();
      EXPECT_EQ(runtime.shards(), shards);
    }
  }
}

// Blocks the first SelectPairs call until released, so a test can park a
// shard's worker inside a session op at a deterministic point.
struct Gate {
  std::mutex mu;
  std::condition_variable cv;
  int entered = 0;
  bool released = false;

  void Enter() {
    std::unique_lock<std::mutex> lock(mu);
    ++entered;
    cv.notify_all();
    cv.wait(lock, [&] { return released; });
  }
  void AwaitEntered() {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return entered > 0; });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mu);
    released = true;
    cv.notify_all();
  }
};

class GatedSelector : public core::PairSelector {
 public:
  GatedSelector(std::unique_ptr<core::PairSelector> inner, Gate* gate)
      : inner_(std::move(inner)), gate_(gate) {}
  Status SelectPairs(int t, std::vector<core::ScoredPair>* out) override {
    gate_->Enter();
    return inner_->SelectPairs(t, out);
  }
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<core::PairSelector> inner_;
  Gate* gate_;
};

Runtime::Options GatedOptions(Gate* gate) {
  Runtime::Options options = BaseOptions();
  options.scheduler.workers = 1;
  options.manager.selector_factory =
      [gate](engine::RankingEngine& engine) {
        return std::make_unique<GatedSelector>(
            engine.MakeSelector(core::SelectorKind::kOpt), gate);
      };
  return options;
}

TEST(RuntimeTest, PostsMergeBehindABusySession) {
  const model::Database db = TestDb();
  Gate gate;
  Runtime runtime(db, GatedOptions(&gate));

  ASSERT_TRUE(
      RunThrough(runtime, {Make(Op::kCreateSession, "c")})[0].status.ok());
  // Park the only worker inside next_pairs on s1 ...
  std::mutex mu;
  std::vector<Response> late;
  auto collect = [&](Response response) {
    std::lock_guard<std::mutex> lock(mu);
    late.push_back(std::move(response));
  };
  Request pairs = Make(Op::kNextPairs, "n", "s1");
  pairs.count = 1;
  runtime.Submit(pairs, collect);
  gate.AwaitEntered();
  // ... then queue three posts behind it. The first opens a pending post
  // group; the other two must merge into it — one engine pass — with
  // per-batch reports identical to sequential execution.
  const std::vector<std::pair<model::ObjectId, model::ObjectId>> folds[] =
      {{{0, 1}}, {{1, 2}}, {{2, 3}}};
  for (int i = 0; i < 3; ++i) {
    Request post = Make(Op::kPostAnswers, "a" + std::to_string(i), "s1");
    post.answers = folds[i];
    runtime.Submit(post, collect);
  }
  gate.Release();
  runtime.Shutdown();

  EXPECT_EQ(runtime.stats().merged_posts, 2);
  ASSERT_EQ(late.size(), 4u);
  // Whatever each fold's outcome is in this dataset (applied,
  // contradictory, ...), the merged group's per-batch reports must be
  // identical to three sequential PostAnswers calls.
  serve::SessionManager baseline(db, GatedOptions(&gate).manager);
  ASSERT_TRUE(baseline.CreateSession().ok());  // "s1"
  for (int i = 0; i < 3; ++i) {
    serve::PostReport expected;
    ASSERT_TRUE(baseline.PostAnswers("s1", folds[i], &expected).ok());
    const Response& response = late[i + 1];
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    EXPECT_EQ(std::get<Response::Posted>(response.payload).report, expected)
        << "batch " << i;
  }
}

TEST(RuntimeTest, IdleReadsJoinOneBatch) {
  const model::Database db = TestDb();
  Gate gate;
  Runtime runtime(db, GatedOptions(&gate));

  for (const char* tag : {"c1", "c2", "c3"}) {
    ASSERT_TRUE(
        RunThrough(runtime, {Make(Op::kCreateSession, tag)})[0].status.ok());
  }
  std::mutex mu;
  std::vector<Response> reads;
  auto collect = [&](Response response) {
    std::lock_guard<std::mutex> lock(mu);
    reads.push_back(std::move(response));
  };
  Request pairs = Make(Op::kNextPairs, "n", "s1");
  pairs.count = 1;
  runtime.Submit(pairs, collect);
  gate.AwaitEntered();
  // With the worker parked on s1, reads on the idle s2/s3 share one
  // group: the first opens it, the second joins — one scheduler task,
  // one epoch pin.
  runtime.Submit(Make(Op::kQuality, "q2", "s2"), collect);
  runtime.Submit(Make(Op::kDistribution, "d3", "s3"), collect);
  gate.Release();
  runtime.Shutdown();

  EXPECT_EQ(runtime.stats().batched_reads, 1);
  ASSERT_EQ(reads.size(), 3u);
  for (const Response& response : reads) {
    EXPECT_TRUE(response.status.ok()) << response.status.ToString();
  }
}

TEST(RuntimeTest, ShedsInlineWithRetryHint) {
  const model::Database db = TestDb();
  Gate gate;
  Runtime::Options options = GatedOptions(&gate);
  options.queue_capacity = 2;
  Runtime runtime(db, options);
#if PTK_METRICS
  obs::Counter* shed_total = obs::GetCounter("ptk_serve_shed_total", "");
  const int64_t shed_before = shed_total->Value();
#endif

  ASSERT_TRUE(
      RunThrough(runtime, {Make(Op::kCreateSession, "c")})[0].status.ok());
  std::mutex mu;
  std::vector<Response> responses;
  auto collect = [&](Response response) {
    std::lock_guard<std::mutex> lock(mu);
    responses.push_back(std::move(response));
  };
  Request pairs = Make(Op::kNextPairs, "n", "s1");
  pairs.count = 1;
  runtime.Submit(pairs, collect);
  gate.AwaitEntered();  // worker parked: its request no longer "waiting"
  for (int i = 0; i < 2; ++i) {
    Request post = Make(Op::kPostAnswers, "a" + std::to_string(i), "s1");
    post.answers = {{0, 1}};
    runtime.Submit(post, collect);
  }
  // Queue full — admission counts requests, not the one group the two
  // posts merged into: the third post is rejected before touching any
  // queue, inline from Submit, with the structured retry hint.
  Request overflow = Make(Op::kPostAnswers, "a2", "s1");
  overflow.answers = {{1, 2}};
  bool shed_inline = false;
  runtime.Submit(overflow, [&](Response response) {
    EXPECT_EQ(response.status.code(), Status::Code::kResourceExhausted);
    EXPECT_EQ(response.retry_after_ms, Runtime::kShedRetryAfterMs);
    EXPECT_EQ(response.id, "a2");
    shed_inline = true;
  });
  EXPECT_TRUE(shed_inline);
  gate.Release();
  runtime.Shutdown();

  EXPECT_EQ(runtime.stats().merged_posts, 1);
  EXPECT_EQ(runtime.stats().shed, 1);
#if PTK_METRICS
  EXPECT_EQ(shed_total->Value() - shed_before, 1);
#endif
  ASSERT_EQ(responses.size(), 3u);
  for (const Response& response : responses) {
    EXPECT_TRUE(response.status.ok()) << response.status.ToString();
  }
}

TEST(RuntimeTest, ItemExpiredWhileQueuedIsNotExecuted) {
  const model::Database db = TestDb();
  Gate gate;
  Runtime runtime(db, GatedOptions(&gate));
#if PTK_METRICS
  obs::Counter* misses = obs::GetCounter("ptk_serve_deadline_miss_total", "");
  const int64_t misses_before = misses->Value();
#endif

  ASSERT_EQ(RunThrough(runtime, {Make(Op::kCreateSession, "c1"),
                                 Make(Op::kCreateSession, "c2")})
                .size(),
            2u);
  Request pairs = Make(Op::kNextPairs, "n", "s1");
  runtime.Submit(pairs, [](Response response) {
    EXPECT_TRUE(response.status.ok()) << response.status.ToString();
  });
  gate.AwaitEntered();  // the only worker is parked inside next_pairs
  Request doomed = Make(Op::kQuality, "q", "s2");
  doomed.deadline_ms = 1;
  Response observed;
  runtime.Submit(doomed, [&](Response response) {
    observed = std::move(response);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  gate.Release();
  runtime.Shutdown();

  EXPECT_EQ(observed.id, "q");
  EXPECT_EQ(observed.status.code(), Status::Code::kDeadlineExceeded);
  EXPECT_EQ(observed.status.message(),
            "deadline expired while queued; request not executed");
  EXPECT_EQ(runtime.stats().deadline_misses, 1);
#if PTK_METRICS
  EXPECT_EQ(misses->Value() - misses_before, 1);
#endif
}

// A selector that spins until the engine's cancel token fires, as the
// real selection loops poll it between batches; gives up after 10 s.
class CancelPollingSelector : public core::PairSelector {
 public:
  explicit CancelPollingSelector(const std::atomic<bool>* token)
      : token_(token) {}
  Status SelectPairs(int, std::vector<core::ScoredPair>*) override {
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (std::chrono::steady_clock::now() < give_up) {
      if (util::CancelRequested(token_)) {
        return Status::Cancelled("selection sweep aborted");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return Status::Internal("watchdog never fired");
  }
  std::string name() const override { return "cancel-polling"; }

 private:
  const std::atomic<bool>* token_;
};

Runtime::Options CancelPollingOptions() {
  Runtime::Options options = BaseOptions();
  options.manager.selector_factory = [](engine::RankingEngine& engine) {
    return std::make_unique<CancelPollingSelector>(
        engine.options().enumerator.cancel);
  };
  return options;
}

TEST(RuntimeTest, WatchdogCancelsSelectionAtItsDeadline) {
  const model::Database db = TestDb();
  Runtime runtime(db, CancelPollingOptions());
#if PTK_METRICS
  obs::Counter* misses = obs::GetCounter("ptk_serve_deadline_miss_total", "");
  const int64_t misses_before = misses->Value();
#endif

  ASSERT_TRUE(
      RunThrough(runtime, {Make(Op::kCreateSession, "c")})[0].status.ok());
  Request pairs = Make(Op::kNextPairs, "n", "s1");
  pairs.deadline_ms = 50;
  const Response response = RunThrough(runtime, {pairs})[0];
  runtime.Shutdown();

  // The cancellation was the deadline's doing, so it is reported as a
  // deadline miss, with the interrupted operation's own message kept.
  EXPECT_EQ(response.status.code(), Status::Code::kDeadlineExceeded)
      << response.status.ToString();
  EXPECT_NE(response.status.message().find(
                "deadline expired during execution"),
            std::string::npos)
      << response.status.ToString();
  EXPECT_NE(response.status.message().find("selection sweep aborted"),
            std::string::npos)
      << response.status.ToString();
  EXPECT_EQ(runtime.stats().deadline_misses, 1);
#if PTK_METRICS
  EXPECT_EQ(misses->Value() - misses_before, 1);
#endif
}

// The watchdog fires the session's one CancelSource; the next request on
// the session must start re-armed, not inherit the cancellation.
TEST(RuntimeTest, DeadlineCancelledSelectionLeavesSessionUsable) {
  const model::Database db = TestDb();
  Runtime runtime(db, CancelPollingOptions());

  ASSERT_TRUE(
      RunThrough(runtime, {Make(Op::kCreateSession, "c")})[0].status.ok());
  Request pairs = Make(Op::kNextPairs, "n", "s1");
  pairs.deadline_ms = 20;
  const std::vector<Response> responses =
      RunThrough(runtime, {pairs, Make(Op::kDistribution, "d", "s1"),
                           Make(Op::kQuality, "q", "s1")});
  runtime.Shutdown();

  EXPECT_EQ(responses[0].status.code(), Status::Code::kDeadlineExceeded)
      << responses[0].status.ToString();
  EXPECT_TRUE(responses[1].status.ok()) << responses[1].status.ToString();
  EXPECT_TRUE(responses[2].status.ok()) << responses[2].status.ToString();
}

// An exact read over one large answer component runs for about a second;
// its deadline must stop it, not let it run to the end and answer ok.
TEST(RuntimeTest, ReadsStopAtTheirDeadline) {
  data::SynOptions syn;
  syn.num_objects = 1000;
  syn.avg_instances = 3;
  syn.value_range = 1000.0;
  syn.cluster_width = 50.0;
  syn.seed = 6;
  const model::Database db = data::MakeSynDataset(syn);
  Runtime::Options options;
  options.manager.k = 5;
  Runtime runtime(db, options);

  // A star "x < pivot" over the objects of lowest expected value: the
  // contested head of the ranking, joined into one component.
  constexpr model::ObjectId kPivot = 900;
  std::vector<model::ObjectId> head;
  for (model::ObjectId oid = 0; oid < db.num_objects(); ++oid) {
    if (oid != kPivot) head.push_back(oid);
  }
  std::stable_sort(head.begin(), head.end(),
                   [&](model::ObjectId a, model::ObjectId b) {
                     return db.object(a).ExpectedValue() <
                            db.object(b).ExpectedValue();
                   });
  Request star = Make(Op::kPostAnswers, "star", "s1");
  for (int i = 0; i < 13; ++i) star.answers.push_back({head[i], kPivot});
  const std::vector<Response> setup =
      RunThrough(runtime, {Make(Op::kCreateSession, "c"), star});
  ASSERT_TRUE(setup[0].status.ok()) << setup[0].status.ToString();
  ASSERT_TRUE(setup[1].status.ok()) << setup[1].status.ToString();
  EXPECT_EQ(std::get<Response::Posted>(setup[1].payload).report.applied, 13);

  // Submitted once the star is in: the read starts at once, well inside
  // its deadline, and must be stopped by it.
  Request read = Make(Op::kQuality, "q", "s1");
  read.deadline_ms = 20;
  const Response response = RunThrough(runtime, {read})[0];
  runtime.Shutdown();
  EXPECT_EQ(response.status.code(), Status::Code::kDeadlineExceeded)
      << response.status.ToString();
}

// Counts the requests answered before each selection starts: with a
// session's requests strictly one at a time, selection j starts after
// exactly j answers.
class StartProbeSelector : public core::PairSelector {
 public:
  StartProbeSelector(std::unique_ptr<core::PairSelector> inner,
                     const std::atomic<int>* answered, std::mutex* mu,
                     std::vector<int>* starts)
      : inner_(std::move(inner)), answered_(answered), mu_(mu),
        starts_(starts) {}
  Status SelectPairs(int t, std::vector<core::ScoredPair>* out) override {
    {
      std::lock_guard<std::mutex> lock(*mu_);
      starts_->push_back(answered_->load());
    }
    return inner_->SelectPairs(t, out);
  }
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<core::PairSelector> inner_;
  const std::atomic<int>* answered_;
  std::mutex* mu_;
  std::vector<int>* starts_;
};

TEST(RuntimeTest, SameSessionRequestsRunInOrderWithoutOverlap) {
  const model::Database db = TestDb();
  std::atomic<int> answered{0};
  std::mutex mu;
  std::vector<int> starts;
  std::vector<std::string> order;
  Runtime::Options options = BaseOptions();
  options.scheduler.workers = 4;
  options.manager.selector_factory = [&](engine::RankingEngine& engine) {
    return std::make_unique<StartProbeSelector>(
        engine.MakeSelector(core::SelectorKind::kOpt), &answered, &mu,
        &starts);
  };
  Runtime runtime(db, options);
  ASSERT_TRUE(
      RunThrough(runtime, {Make(Op::kCreateSession, "c")})[0].status.ok());

  constexpr int kRequests = 16;
  for (int i = 0; i < kRequests; ++i) {
    runtime.Submit(Make(Op::kNextPairs, "n" + std::to_string(i), "s1"),
                   [&](Response response) {
                     EXPECT_TRUE(response.status.ok())
                         << response.status.ToString();
                     std::lock_guard<std::mutex> lock(mu);
                     order.push_back(response.id);
                     answered.fetch_add(1);
                   });
  }
  runtime.Shutdown();

  ASSERT_EQ(order.size(), static_cast<size_t>(kRequests));
  ASSERT_EQ(starts.size(), static_cast<size_t>(kRequests));
  for (int i = 0; i < kRequests; ++i) {
    EXPECT_EQ(order[i], "n" + std::to_string(i));
    EXPECT_EQ(starts[i], i) << "request " << i << " overlapped its "
                            << "predecessor";
  }
}

TEST(RuntimeTest, ShutdownRejectsNewWorkInline) {
  const model::Database db = TestDb();
  Runtime runtime(db, BaseOptions());
  runtime.Shutdown();
  bool rejected = false;
  runtime.Submit(Make(Op::kQuality, "q", "s1"), [&](Response response) {
    EXPECT_EQ(response.status.code(), Status::Code::kFailedPrecondition);
    rejected = true;
  });
  EXPECT_TRUE(rejected);
}

TEST(RuntimeTest, MetricsBarrierAggregatesAllShards) {
  const model::Database db = TestDb();
  Runtime::Options options = BaseOptions();
  options.shards = 2;
  Runtime runtime(db, options);

  std::vector<Request> script;
  for (int i = 0; i < 3; ++i) {
    script.push_back(Make(Op::kCreateSession, "c" + std::to_string(i)));
  }
  script.push_back(Make(Op::kMetrics, "m"));
  const std::vector<Response> responses = RunThrough(runtime, script);
  runtime.Shutdown();

  const Response& metrics = responses.back();
  ASSERT_TRUE(metrics.status.ok());
  const auto& payload = std::get<Response::Metrics>(metrics.payload);
  EXPECT_EQ(payload.sessions_open, 3);
  ASSERT_EQ(payload.session_bytes.size(), 3u);
  // Session ids are globally ordered even though two managers own them.
  EXPECT_EQ(payload.session_bytes[0].session, "s1");
  EXPECT_EQ(payload.session_bytes[1].session, "s2");
  EXPECT_EQ(payload.session_bytes[2].session, "s3");
  EXPECT_TRUE(payload.has_scheduler);
  EXPECT_EQ(payload.queue_depth, 0);
  EXPECT_EQ(payload.submitted, 4);
  EXPECT_EQ(payload.executed, 3);  // the metrics op itself runs inline
}

/// A scratch directory removed on scope exit.
struct TempDir {
  explicit TempDir(const std::string& tag) {
    std::string pattern = testing::TempDir() + "ptk_" + tag + "_XXXXXX";
    std::vector<char> buffer(pattern.begin(), pattern.end());
    buffer.push_back('\0');
    char* made = mkdtemp(buffer.data());
    EXPECT_NE(made, nullptr);
    path = made == nullptr ? pattern : made;
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  std::string path;
};

TEST(RuntimeTest, RecoverReshardsJournaledSessions) {
  const model::Database db = TestDb();
  TempDir dir("runtime_recover");
  Runtime::Options options = BaseOptions();
  options.manager.persist.dir = dir.path;
  options.manager.persist.fsync = false;

  std::vector<Request> script;
  for (int i = 0; i < 3; ++i) {
    script.push_back(Make(Op::kCreateSession, "c" + std::to_string(i)));
  }
  for (int i = 0; i < 3; ++i) {
    Request post =
        Make(Op::kPostAnswers, "a" + std::to_string(i),
             "s" + std::to_string(i + 1));
    post.answers = {{static_cast<model::ObjectId>(i),
                     static_cast<model::ObjectId>(i + 1)}};
    script.push_back(post);
  }
  std::vector<Request> reads;
  for (int i = 0; i < 3; ++i) {
    reads.push_back(
        Make(Op::kQuality, "q" + std::to_string(i),
             "s" + std::to_string(i + 1)));
  }
  Runtime before(db, options);
  ASSERT_EQ(RunThrough(before, script).size(), 6u);
  const std::vector<Response> golden = RunThrough(before, reads);
  before.Shutdown();

  // A new process with a different shard count recovers every session
  // into the shard owning its id and serves identical reads; the global
  // id counter resumes past the recovered ids.
  Runtime::Options sharded_options = options;
  sharded_options.shards = 2;
  Runtime after(db, sharded_options);
  util::StatusOr<int> recovered = after.Recover();
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(*recovered, 3);
  ExpectSameTranscript(golden, RunThrough(after, reads));
  const std::vector<Response> fresh =
      RunThrough(after, {Make(Op::kCreateSession, "c")});
  ASSERT_TRUE(fresh[0].status.ok());
  EXPECT_EQ(std::get<Response::Created>(fresh[0].payload).session, "s4");
  after.Shutdown();
}

// A session created with `"semantics":"expected_rank"` cleans end to end:
// the quality op reports the objective's uncertainty (not entropy), the
// point of the whole axis. Unknown names are refused at create time, and
// the per-session choice survives a journal replay into a fresh runtime.
TEST(RuntimeTest, CreateSessionHonorsRequestedSemantics) {
  const model::Database db = TestDb();
  Runtime runtime(db, BaseOptions());

  Request create = Make(Op::kCreateSession, "c0");
  create.semantics = "expected_rank";
  Request bogus = Make(Op::kCreateSession, "c1");
  bogus.semantics = "no_such_objective";
  Request post = Make(Op::kPostAnswers, "a0", "s1");
  post.answers = {{0, 1}, {1, 2}};
  const std::vector<Response> responses =
      RunThrough(runtime, {create, bogus, post, Make(Op::kQuality, "q0",
                                                     "s1")});
  runtime.Shutdown();

  ASSERT_TRUE(responses[0].status.ok());
  EXPECT_EQ(std::get<Response::Created>(responses[0].payload).session,
            "s1");
  EXPECT_EQ(responses[1].status.code(), Status::Code::kInvalidArgument);
  ASSERT_TRUE(responses[2].status.ok());
  ASSERT_TRUE(responses[3].status.ok());
  const double served = std::get<Response::Quality>(
      responses[3].payload).quality;

  // Reference: a bare engine under the same objective and fold flags.
  engine::RankingEngine::Options engine_options;
  engine_options.k = BaseOptions().manager.k;
  engine_options.fanout = BaseOptions().manager.fanout;
  engine_options.semantics = core::SemanticsId::kExpectedRank;
  engine::RankingEngine engine(db, engine_options);
  engine::RankingEngine::FoldOutcome outcome;
  ASSERT_TRUE(engine.Fold(0, 1, false, &outcome).ok());
  ASSERT_TRUE(engine.Fold(1, 2, false, &outcome).ok());
  const util::StatusOr<double> expected = engine.Quality();
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(served, *expected)
      << "serving path disagrees with a direct expected_rank engine";

  // And it is not the entropy number the default would have reported.
  engine::RankingEngine::Options entropy_options = engine_options;
  entropy_options.semantics = core::SemanticsId::kEntropy;
  engine::RankingEngine entropy(db, entropy_options);
  ASSERT_TRUE(entropy.Fold(0, 1, false, &outcome).ok());
  ASSERT_TRUE(entropy.Fold(1, 2, false, &outcome).ok());
  const util::StatusOr<double> entropy_quality = entropy.Quality();
  ASSERT_TRUE(entropy_quality.ok());
  EXPECT_NE(served, *entropy_quality);
}

TEST(RuntimeTest, RecoverReplaysSessionSemantics) {
  const model::Database db = TestDb();
  TempDir dir("runtime_semantics_recover");
  Runtime::Options options = BaseOptions();
  options.manager.persist.dir = dir.path;
  options.manager.persist.fsync = false;

  Request create_er = Make(Op::kCreateSession, "c0");
  create_er.semantics = "ukranks";
  Request post1 = Make(Op::kPostAnswers, "a0", "s1");
  post1.answers = {{0, 1}};
  Request post2 = Make(Op::kPostAnswers, "a1", "s2");
  post2.answers = {{0, 1}};
  const std::vector<Request> reads = {Make(Op::kQuality, "q0", "s1"),
                                      Make(Op::kQuality, "q1", "s2")};

  Runtime before(db, options);
  ASSERT_EQ(RunThrough(before,
                       {create_er, Make(Op::kCreateSession, "c1"), post1,
                        post2})
                .size(),
            4u);
  const std::vector<Response> golden = RunThrough(before, reads);
  before.Shutdown();

  // The two sessions diverge only in their journaled semantics byte; the
  // recovered runtime must answer both reads bit-identically, which means
  // it rebuilt s1 as ukranks and s2 as entropy.
  Runtime after(db, options);
  util::StatusOr<int> recovered = after.Recover();
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(*recovered, 2);
  ExpectSameTranscript(golden, RunThrough(after, reads));
  after.Shutdown();

  ASSERT_TRUE(golden[0].status.ok());
  ASSERT_TRUE(golden[1].status.ok());
  EXPECT_NE(std::get<Response::Quality>(golden[0].payload).quality,
            std::get<Response::Quality>(golden[1].payload).quality);
}

}  // namespace
}  // namespace ptk
