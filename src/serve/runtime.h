#ifndef PTK_SERVE_RUNTIME_H_
#define PTK_SERVE_RUNTIME_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "model/database.h"
#include "obs/metrics.h"
#include "serve/message.h"
#include "serve/scheduler.h"
#include "serve/session_manager.h"
#include "util/status.h"
#include "util/statusor.h"

namespace ptk::serve {

/// Shard routing: FNV-1a 64 of the session id, reduced mod `shards`.
/// Stable across processes and shard counts are a deployment choice — the
/// same id always lands on hash(id) % shards.
int ShardOfSession(std::string_view session_id, int shards);

/// The sharded, coalescing front of the serving stack: N shards, each one
/// owning its own SessionManager and executor (hash session id -> shard).
///
/// Every request takes one path: Submit -> the shard's admission -> the
/// session's queue of groups -> the shard's executor (serve::Scheduler) ->
/// a deadline check as the item starts -> `done`. A group is one executor
/// task serving one or more queued requests:
///   * post_answers merges behind the session's newest post group that
///     has not started — one session lock, one engine pass, one journal
///     commit for the whole group — with per-batch reports identical to
///     sequential execution (SessionManager::PostAnswersBatched);
///   * distribution/quality on idle sessions of a shard share one read
///     group of at most kMaxReadBatch items under a single shared-artifact
///     epoch pin (SessionManager::PinArtifacts); a read queued behind a
///     busy session joins that session's pending read group;
///   * every other op is a group of one.
/// Grouping never reorders a session's requests: each session's groups
/// run one at a time, in submission order.
///
/// Bit-identity: session ids are assigned from ONE runtime-global counter
/// ("s1", "s2", ... in submission order), independent of the shard count,
/// and every session op routes to the one shard owning its id — so the
/// same request stream produces byte-identical responses on 1 shard and
/// on N (pinned by tests/shared_sessions_test.cc and tools/check.sh).
/// The metrics payload is the exception by nature: its queue and request
/// tallies reflect scheduling, not session state.
///
/// Admission: per shard, at most Options::queue_capacity requests may be
/// waiting for their group to start. Beyond that Submit responds inline
/// with kResourceExhausted carrying Response::retry_after_ms =
/// kShedRetryAfterMs.
///
/// Deadlines: each item is checked once, when it starts. One whose
/// deadline has passed answers kDeadlineExceeded without touching the
/// engine. Otherwise its session's CancelSource is re-armed, and for
/// every op but post_answers the shard's watchdog fires the source at the
/// item's deadline; the selection and enumeration loops poll it, and the
/// resulting kCancelled is reported as kDeadlineExceeded. A post group
/// re-arms the source once and runs to completion: folds poll no token.
class Runtime {
 public:
  /// Most items one cross-session read group accepts. An unbounded batch
  /// convoys: one task serializes reads idle workers could run in
  /// parallel, and every involved session head-of-line blocks its own
  /// posts behind the batch. Same-session post merges stay unbounded — a
  /// session's posts are serial either way.
  static constexpr int kMaxReadBatch = 16;
  /// Retry hint stamped into shed responses' retry_after_ms.
  static constexpr int64_t kShedRetryAfterMs = 1;

  struct Options {
    /// Shard count (clamped to >= 1). Each shard owns one SessionManager
    /// and one executor, so `manager.max_sessions`, `queue_capacity` and
    /// `scheduler.workers` are PER-SHARD budgets.
    int shards = 1;

    /// Requests that may wait for their group to start, per shard
    /// (clamped to >= 1); beyond this Submit sheds. Running requests do
    /// not count.
    int queue_capacity = 32;

    /// Grouping is how the runtime works, not a mode; kept as a constant
    /// for callers that report it.
    static constexpr bool coalesce = true;

    /// Per-shard layers. With persistence configured, all shards share
    /// manager.persist.dir — each journaled session belongs to exactly
    /// one shard (its id's hash), so the stores never collide.
    SessionManager::Options manager;
    Scheduler::Options scheduler;
  };

  /// `db` must be finalized and outlive the runtime. Builds every shard's
  /// manager (each pre-warms from the shared catalog when persistence is
  /// on) and starts the shard executors.
  Runtime(const model::Database& db, const Options& options);

  /// Shutdown(), then tears the shards down.
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Submits one request. `done` fires exactly once per call — from a
  /// worker thread normally; inline from Submit for shed / shutdown
  /// rejections and for kMetrics (see below). The request must be
  /// codec-validated (ValidateRequest).
  ///
  /// kMetrics is a consistent-snapshot barrier: Submit waits for every
  /// shard to drain its admitted work, then aggregates all shards
  /// inline. Concurrent Submit calls from other threads are not fenced —
  /// the barrier orders the metrics read against requests submitted
  /// before it on this thread.
  void Submit(Request request, std::function<void(Response)> done);

  /// Recovers every journaled session into the shard owning its id and
  /// resumes the global id counter past the recovered ids. Same
  /// preconditions as SessionManager::RecoverSessions: persistence
  /// configured, nothing submitted yet. Returns sessions recovered.
  util::StatusOr<int> Recover();

  /// Stops admission (later Submits answer kFailedPrecondition), waits
  /// for every admitted group to finish, then shuts the shard executors
  /// down. Idempotent.
  void Shutdown();

  struct Stats {
    int64_t submitted = 0;        // requests admitted
    int64_t completed = 0;        // requests answered (non-shed)
    int64_t shed = 0;             // requests rejected at admission
    int64_t merged_posts = 0;     // post batches merged into a group
    int64_t batched_reads = 0;    // reads that joined a read group
    int64_t deadline_misses = 0;  // expired before or during execution
  };
  Stats stats() const;

  int shards() const { return static_cast<int>(shards_.size()); }
  const SessionManager& manager(int shard) const {
    return *shards_[shard]->manager;
  }

 private:
  using Clock = std::chrono::steady_clock;

  struct Item {
    Request request;
    std::function<void(Response)> done;
    Clock::time_point deadline_at = Clock::time_point::max();  // none
  };

  /// One executor task. Its first item decides what may join it: posts
  /// merge into a post group, reads into a read group, and nothing joins
  /// any other op. `closed` flips when the group starts (under the shard
  /// mutex): a closed group never accepts another item.
  struct Group {
    bool closed = false;
    std::vector<Item> items;
    std::set<std::string> sessions;  // sessions whose queues this heads

    Op op() const { return items.front().request.op; }
  };

  /// Per-session FIFO of groups: `current` is posted to the executor
  /// (and, until closed, may still accept items); `pending` groups are
  /// posted one at a time as their predecessors finish.
  struct SessionQueue {
    std::shared_ptr<Group> current;
    std::deque<std::shared_ptr<Group>> pending;
  };

  struct Shard {
    std::unique_ptr<SessionManager> manager;
    std::unique_ptr<Scheduler> scheduler;

    std::mutex mu;  // guards everything below
    std::map<std::string, SessionQueue> sessions;
    /// The shard-wide read group currently accepting joiners (null when
    /// none is open). Always == some involved session's `current`.
    std::shared_ptr<Group> open_reads;
    int waiting = 0;      // admitted requests whose group hasn't started
    int outstanding = 0;  // groups posted or pending
    std::condition_variable drain_cv;  // outstanding == 0

    // Per-shard labelled families (label-in-name convention, see
    // obs::FormatPrometheus).
    obs::Counter* requests_total = nullptr;
    obs::Counter* shed_total = nullptr;
    obs::Counter* merged_posts_total = nullptr;
    obs::Counter* batched_reads_total = nullptr;
  };

  /// The group `item` joins instead of opening its own, or null. Caller
  /// holds shard.mu; `queue` is the item's session queue.
  static Group* JoinTarget(Shard& shard, const SessionQueue& queue,
                           const Item& item);
  /// Hands the group to the shard executor. Caller holds shard.mu.
  void PostLocked(int shard_index, const std::shared_ptr<Group>& group);
  /// Runs the group on a worker: closes it, answers every item, then
  /// advances the queues of the sessions it headed.
  void ExecuteGroup(int shard_index, const std::shared_ptr<Group>& group);
  /// The merged post_answers pass of a post group.
  void ExecutePosts(Shard& shard, Group& group);
  /// One started item of any other group: re-arms the session's cancel
  /// source, arms the watchdog at the item's deadline, runs the op.
  Response ExecuteItem(Shard& shard, const Item& item);
  /// Answers an item whose deadline passed before it started.
  void RespondExpired(Item& item);
  void Respond(Item& item, Response response);

  Response MetricsBarrier(const Request& request);

  Options options_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<uint64_t> next_id_{1};
  std::atomic<bool> accepting_{true};
  bool shut_down_ = false;  // guarded by shutdown_mu_
  std::mutex shutdown_mu_;

  std::atomic<int64_t> submitted_{0};
  std::atomic<int64_t> completed_{0};
  std::atomic<int64_t> shed_{0};
  std::atomic<int64_t> merged_posts_{0};
  std::atomic<int64_t> batched_reads_{0};
  std::atomic<int64_t> deadline_misses_{0};
};

}  // namespace ptk::serve

#endif  // PTK_SERVE_RUNTIME_H_
