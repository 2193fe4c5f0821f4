#include "serve/runtime.h"

#include <algorithm>
#include <utility>

#include "serve/protocol.h"

namespace ptk::serve {

namespace {

constexpr uint64_t kFnvOffset = 14695981039346656037ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

util::Status ShuttingDown() {
  return util::Status::FailedPrecondition(
      "serving runtime is shutting down; request rejected");
}

bool IsRead(Op op) { return op == Op::kDistribution || op == Op::kQuality; }

// The ptk_serve_* request families. Each counts client requests, never
// executor tasks: a merged group of N posts is N requests.

obs::Gauge* QueueDepthGauge() {
  static obs::Gauge* const gauge = obs::GetGauge(
      "ptk_serve_queue_depth", "Requests waiting for their group to start");
  return gauge;
}

obs::Gauge* InFlightGauge() {
  static obs::Gauge* const gauge = obs::GetGauge(
      "ptk_serve_inflight", "Requests in a started group, not yet answered");
  return gauge;
}

obs::Counter* RequestCounter() {
  static obs::Counter* const counter = obs::GetCounter(
      "ptk_serve_requests_total", "Requests admitted");
  return counter;
}

obs::Counter* ShedCounter() {
  static obs::Counter* const counter = obs::GetCounter(
      "ptk_serve_shed_total", "Requests rejected by admission control");
  return counter;
}

obs::Counter* DeadlineMissCounter() {
  static obs::Counter* const counter = obs::GetCounter(
      "ptk_serve_deadline_miss_total",
      "Requests that expired before or during execution");
  return counter;
}

obs::Histogram* LatencyHistogram() {
  static obs::Histogram* const histogram = obs::GetHistogram(
      "ptk_serve_request_seconds",
      "Wall time of executed requests (work only, not queueing)");
  return histogram;
}

}  // namespace

int ShardOfSession(std::string_view session_id, int shards) {
  if (shards <= 1) return 0;
  uint64_t hash = kFnvOffset;
  for (const char c : session_id) {
    hash ^= static_cast<uint8_t>(c);
    hash *= kFnvPrime;
  }
  return static_cast<int>(hash % static_cast<uint64_t>(shards));
}

Runtime::Runtime(const model::Database& db, const Options& options)
    : options_(options) {
  options_.shards = std::max(1, options_.shards);
  options_.queue_capacity = std::max(1, options_.queue_capacity);
  // Register the request families up front so exporters see them (at
  // zero) even before the first shed or deadline miss.
  QueueDepthGauge();
  InFlightGauge();
  RequestCounter();
  ShedCounter();
  DeadlineMissCounter();
  LatencyHistogram();
  shards_.reserve(options_.shards);
  for (int i = 0; i < options_.shards; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->manager = std::make_unique<SessionManager>(db, options_.manager);
    shard->scheduler = std::make_unique<Scheduler>(options_.scheduler);
    const std::string label = "{shard=\"" + std::to_string(i) + "\"}";
    shard->requests_total = obs::GetCounter(
        "ptk_serve_shard_requests_total" + label,
        "Requests admitted, per shard");
    shard->shed_total = obs::GetCounter(
        "ptk_serve_shard_shed_total" + label,
        "Requests rejected by per-shard admission control");
    shard->merged_posts_total = obs::GetCounter(
        "ptk_serve_shard_coalesced_folds_total" + label,
        "post_answers batches merged into an existing group, per shard");
    shard->batched_reads_total = obs::GetCounter(
        "ptk_serve_shard_batched_reads_total" + label,
        "distribution/quality reads that joined a read group, per shard");
    shards_.push_back(std::move(shard));
  }
}

Runtime::~Runtime() { Shutdown(); }

void Runtime::Submit(Request request, std::function<void(Response)> done) {
  if (!accepting_.load(std::memory_order_acquire)) {
    done(ErrorResponse(request.id, ShuttingDown()));
    return;
  }
  if (request.op == Op::kMetrics) {
    submitted_.fetch_add(1, std::memory_order_relaxed);
    RequestCounter()->Add();
    Response response = MetricsBarrier(request);
    completed_.fetch_add(1, std::memory_order_relaxed);
    done(std::move(response));
    return;
  }

  // Session ids come from the runtime-global counter so the id stream —
  // and with it every downstream response — is independent of the shard
  // count. The assigned id rides in Request::session (empty on the wire
  // for create) down to ExecuteRequest.
  if (request.op == Op::kCreateSession) {
    request.session =
        "s" + std::to_string(next_id_.fetch_add(1, std::memory_order_relaxed));
  }
  const int shard_index = ShardOfSession(request.session, shards());
  Shard& shard = *shards_[shard_index];

  Item item;
  item.request = std::move(request);
  item.done = std::move(done);
  if (item.request.deadline_ms > 0) {
    item.deadline_at =
        Clock::now() + std::chrono::milliseconds(item.request.deadline_ms);
  }

  std::unique_lock<std::mutex> lock(shard.mu);
  if (shard.waiting >= options_.queue_capacity) {
    lock.unlock();
    shard.shed_total->Add();
    ShedCounter()->Add();
    shed_.fetch_add(1, std::memory_order_relaxed);
    Response response = ErrorResponse(
        item.request.id,
        util::Status::ResourceExhausted(
            "request queue full (" + std::to_string(options_.queue_capacity) +
            " waiting); retry after in-flight requests drain"));
    response.retry_after_ms = kShedRetryAfterMs;
    item.done(std::move(response));
    return;
  }
  ++shard.waiting;
  shard.requests_total->Add();
  RequestCounter()->Add();
  QueueDepthGauge()->Add();
  submitted_.fetch_add(1, std::memory_order_relaxed);

  const Op op = item.request.op;
  const std::string key = item.request.session;
  SessionQueue& queue = shard.sessions[key];
  if (Group* target = JoinTarget(shard, queue, item)) {
    if (op == Op::kPostAnswers) {
      shard.merged_posts_total->Add();
      merged_posts_.fetch_add(1, std::memory_order_relaxed);
    } else {
      shard.batched_reads_total->Add();
      batched_reads_.fetch_add(1, std::memory_order_relaxed);
    }
    if (queue.current == nullptr) {
      // An idle session joining the shard's open read group: that group
      // now heads this session's queue too.
      queue.current = shard.open_reads;
      target->sessions.insert(key);
    }
    target->items.push_back(std::move(item));
    return;
  }

  auto group = std::make_shared<Group>();
  group->sessions.insert(key);
  group->items.push_back(std::move(item));
  ++shard.outstanding;
  if (queue.current == nullptr) {
    queue.current = group;
    if (IsRead(op)) shard.open_reads = group;
    PostLocked(shard_index, group);
  } else {
    queue.pending.push_back(std::move(group));
  }
}

Runtime::Group* Runtime::JoinTarget(Shard& shard, const SessionQueue& queue,
                                    const Item& item) {
  const Op op = item.request.op;
  if (op == Op::kPostAnswers) {
    // Merge behind the newest same-session post group that has not
    // started: the pending tail, or the posted-but-not-started current.
    if (!queue.pending.empty()) {
      Group* tail = queue.pending.back().get();
      return tail->op() == Op::kPostAnswers ? tail : nullptr;
    }
    Group* current = queue.current.get();
    return current != nullptr && !current->closed &&
                   current->op() == Op::kPostAnswers
               ? current
               : nullptr;
  }
  if (!IsRead(op)) return nullptr;
  Group* target = nullptr;
  if (queue.current == nullptr) {
    // Idle session: ride along in the shard's open read group, which is
    // posted but not yet running (a started group is never open_reads).
    target = shard.open_reads.get();
  } else if (!queue.pending.empty() &&
             IsRead(queue.pending.back()->op())) {
    target = queue.pending.back().get();
  }
  return target != nullptr &&
                 static_cast<int>(target->items.size()) < kMaxReadBatch
             ? target
             : nullptr;
}

void Runtime::PostLocked(int shard_index,
                         const std::shared_ptr<Group>& group) {
  shards_[shard_index]->scheduler->Post(
      [this, shard_index, group] { ExecuteGroup(shard_index, group); });
}

void Runtime::ExecuteGroup(int shard_index,
                           const std::shared_ptr<Group>& group) {
  Shard& shard = *shards_[shard_index];
  int size = 0;
  {
    // Closing under the shard mutex fixes the item list: from here on
    // nothing joins the group, and every item it took leaves `waiting`.
    std::lock_guard<std::mutex> lock(shard.mu);
    group->closed = true;
    size = static_cast<int>(group->items.size());
    shard.waiting -= size;
    if (shard.open_reads == group) shard.open_reads = nullptr;
  }
  QueueDepthGauge()->Sub(size);
  InFlightGauge()->Add(size);

  if (group->op() == Op::kPostAnswers) {
    ExecutePosts(shard, *group);
  } else {
    // A read group's items share ONE epoch pin over the shard's base
    // artifacts — the batching this group exists for.
    util::EpochManager::ReadGuard pin;
    if (IsRead(group->op())) pin = shard.manager->PinArtifacts();
    for (Item& item : group->items) {
      if (Clock::now() >= item.deadline_at) {
        RespondExpired(item);
      } else {
        Respond(item, ExecuteItem(shard, item));
      }
    }
  }

  // Advance every session this group headed; post their next groups.
  std::lock_guard<std::mutex> lock(shard.mu);
  for (const std::string& key : group->sessions) {
    const auto it = shard.sessions.find(key);
    if (it == shard.sessions.end() || it->second.current != group) continue;
    SessionQueue& queue = it->second;
    queue.current = nullptr;
    if (!queue.pending.empty()) {
      queue.current = std::move(queue.pending.front());
      queue.pending.pop_front();
      PostLocked(shard_index, queue.current);
    } else {
      shard.sessions.erase(it);
    }
  }
  if (--shard.outstanding == 0) shard.drain_cv.notify_all();
}

void Runtime::ExecutePosts(Shard& shard, Group& group) {
  const std::string& session = *group.sessions.begin();
  std::vector<SessionManager::PostBatch> batches;
  std::vector<Item*> live;
  const auto now = Clock::now();
  for (Item& item : group.items) {
    if (now >= item.deadline_at) {
      RespondExpired(item);
      continue;
    }
    batches.emplace_back().answers = item.request.answers;
    live.push_back(&item);
  }
  if (live.empty()) return;
  if (const auto cancel = shard.manager->CancelSourceFor(session).source) {
    cancel->Reset();
  }
  const auto start = Clock::now();
  const util::Status outer =
      shard.manager->PostAnswersBatched(session, &batches);
  const double seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  for (size_t i = 0; i < live.size(); ++i) {
    LatencyHistogram()->Observe(seconds);
    Respond(*live[i],
            PostAnswersResponse(live[i]->request.id,
                                outer.ok() ? batches[i].status : outer,
                                batches[i].report));
  }
}

Response Runtime::ExecuteItem(Shard& shard, const Item& item) {
  // Null when the session does not exist (yet): a create, or an unknown
  // id the engine call answers NotFound.
  const std::shared_ptr<util::CancelSource> cancel =
      shard.manager->CancelSourceFor(item.request.session).source;
  uint64_t alarm = 0;
  if (cancel != nullptr) {
    // Safe to re-arm: a session's groups run one at a time, so no loop is
    // polling this token now.
    cancel->Reset();
    if (item.deadline_at != Clock::time_point::max()) {
      alarm = shard.scheduler->Arm(item.deadline_at, cancel);
    }
  }
  const auto start = Clock::now();
  Response response = ExecuteRequest(*shard.manager, nullptr, item.request);
  const auto end = Clock::now();
  if (alarm != 0) shard.scheduler->Disarm(alarm);
  LatencyHistogram()->Observe(
      std::chrono::duration<double>(end - start).count());
  if (response.status.code() == util::Status::Code::kCancelled &&
      end >= item.deadline_at) {
    // The watchdog's doing: report it as the deadline event it is. Any
    // partial-effect report stays; the payload goes.
    response.status =
        util::Status::DeadlineExceeded("deadline expired during execution")
            .WithContext(response.status.message());
    response.payload = Response::None{};
    deadline_misses_.fetch_add(1, std::memory_order_relaxed);
    DeadlineMissCounter()->Add();
  }
  return response;
}

void Runtime::RespondExpired(Item& item) {
  deadline_misses_.fetch_add(1, std::memory_order_relaxed);
  DeadlineMissCounter()->Add();
  Respond(item, ErrorResponse(item.request.id,
                              util::Status::DeadlineExceeded(
                                  "deadline expired while queued; request "
                                  "not executed")));
}

void Runtime::Respond(Item& item, Response response) {
  completed_.fetch_add(1, std::memory_order_relaxed);
  InFlightGauge()->Sub();
  item.done(std::move(response));
}

Response Runtime::MetricsBarrier(const Request& request) {
  // Consistent snapshot: wait for every shard to drain what was admitted
  // before this call, then read them all.
  std::vector<const SessionManager*> managers;
  managers.reserve(shards_.size());
  int64_t waiting = 0;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::unique_lock<std::mutex> lock(shard->mu);
    shard->drain_cv.wait(lock, [&] { return shard->outstanding == 0; });
    waiting += shard->waiting;
    managers.push_back(shard->manager.get());
  }
  Response response;
  response.id = request.id;
  Response::Metrics metrics = BuildMetrics(managers);
  // Client-visible request counts, not group counts.
  metrics.has_scheduler = true;
  metrics.queue_depth = waiting;
  metrics.submitted = submitted_.load(std::memory_order_relaxed);
  metrics.executed = completed_.load(std::memory_order_relaxed);
  metrics.shed = shed_.load(std::memory_order_relaxed);
  metrics.deadline_misses = deadline_misses_.load(std::memory_order_relaxed);
  response.payload = std::move(metrics);
  return response;
}

util::StatusOr<int> Runtime::Recover() {
  int total = 0;
  const int shard_count = shards();
  for (int i = 0; i < shard_count; ++i) {
    util::StatusOr<int> recovered = shards_[i]->manager->RecoverSessions(
        [i, shard_count](const std::string& id) {
          return ShardOfSession(id, shard_count) == i;
        });
    if (!recovered.ok()) return recovered.status();
    total += *recovered;
  }
  // Resume the global id counter past every recovered id (each manager
  // tracked the max of the ids it recovered).
  uint64_t next = 1;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    next = std::max(next, shard->manager->next_session_number());
  }
  next_id_.store(next, std::memory_order_relaxed);
  return total;
}

void Runtime::Shutdown() {
  std::lock_guard<std::mutex> shutdown_lock(shutdown_mu_);
  if (shut_down_) return;
  accepting_.store(false, std::memory_order_release);
  // Drain the runtime's own queues first: a pending group is posted to
  // its executor only as its predecessor finishes, so the executors must
  // keep running until outstanding hits zero everywhere.
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::unique_lock<std::mutex> lock(shard->mu);
    shard->drain_cv.wait(lock, [&] { return shard->outstanding == 0; });
  }
  for (const std::unique_ptr<Shard>& shard : shards_) {
    shard->scheduler->Shutdown();
  }
  shut_down_ = true;
}

Runtime::Stats Runtime::stats() const {
  Stats stats;
  stats.submitted = submitted_.load(std::memory_order_relaxed);
  stats.completed = completed_.load(std::memory_order_relaxed);
  stats.shed = shed_.load(std::memory_order_relaxed);
  stats.merged_posts = merged_posts_.load(std::memory_order_relaxed);
  stats.batched_reads = batched_reads_.load(std::memory_order_relaxed);
  stats.deadline_misses = deadline_misses_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace ptk::serve
