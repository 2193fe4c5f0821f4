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

/// Same status text the Scheduler stamps on requests that expire before a
/// worker picks them up, so a group item that expires while coalesced is
/// byte-identical to the same request expiring as a single.
util::Status ExpiredInQueue() {
  return util::Status::DeadlineExceeded(
      "deadline expired while queued; request not executed");
}

bool IsRead(Op op) { return op == Op::kDistribution || op == Op::kQuality; }

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
  options_.scheduler.queue_capacity =
      std::max(1, options_.scheduler.queue_capacity);
  options_.max_read_batch = std::max(1, options_.max_read_batch);
  shards_.reserve(options_.shards);
  for (int i = 0; i < options_.shards; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->manager = std::make_unique<SessionManager>(db, options_.manager);
    // The runtime does its own admission (on request count, before
    // grouping); the shard scheduler only ever sees the groups those
    // admitted requests coalesce into, which is never more than the
    // request count — the +1 keeps a dispatch racing the last admission
    // from ever shedding inside the scheduler.
    Scheduler::Options scheduler_options = options_.scheduler;
    scheduler_options.queue_capacity += 1;
    shard->scheduler = std::make_unique<Scheduler>(scheduler_options);
    const std::string label = "{shard=\"" + std::to_string(i) + "\"}";
    shard->requests_total = obs::GetCounter(
        "ptk_serve_shard_requests_total" + label,
        "Requests admitted, per shard");
    shard->shed_total = obs::GetCounter(
        "ptk_serve_shard_shed_total" + label,
        "Requests rejected by per-shard admission control");
    shard->coalesced_folds_total = obs::GetCounter(
        "ptk_serve_shard_coalesced_folds_total" + label,
        "post_answers batches merged into an existing group, per shard");
    shard->batched_reads_total = obs::GetCounter(
        "ptk_serve_shard_batched_reads_total" + label,
        "distribution/quality reads that joined a read group, per shard");
    shards_.push_back(std::move(shard));
  }
}

Runtime::~Runtime() { Shutdown(); }

void Runtime::RespondShed(const Item& item, int waiting) {
  Response response = ErrorResponse(
      item.request.id,
      util::Status::ResourceExhausted(
          "request queue full (" + std::to_string(waiting) +
          " waiting); retry after in-flight requests drain"));
  response.retry_after_ms = options_.shed_retry_after_ms;
  item.done(std::move(response));
}

void Runtime::Submit(Request request, std::function<void(Response)> done) {
  if (!accepting_.load(std::memory_order_acquire)) {
    done(ErrorResponse(request.id, ShuttingDown()));
    return;
  }
  if (request.op == Op::kMetrics) {
    submitted_.fetch_add(1, std::memory_order_relaxed);
    Response response = MetricsBarrier(request);
    completed_.fetch_add(1, std::memory_order_relaxed);
    done(std::move(response));
    return;
  }

  // Session ids come from the runtime-global counter so the id stream —
  // and with it every downstream response — is independent of the shard
  // count. The assigned id rides in Request::session (empty on the wire
  // for create) down to ExecuteSingle.
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
    item.has_deadline = true;
    item.deadline_at = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(item.request.deadline_ms);
  }

  std::unique_lock<std::mutex> lock(shard.mu);
  if (shard.waiting >= options_.scheduler.queue_capacity) {
    lock.unlock();
    shard.shed_total->Add();
    shed_.fetch_add(1, std::memory_order_relaxed);
    RespondShed(item, options_.scheduler.queue_capacity);
    return;
  }
  ++shard.waiting;
  shard.requests_total->Add();
  submitted_.fetch_add(1, std::memory_order_relaxed);

  const Op op = item.request.op;
  const std::string key = item.request.session;
  SessionQueue& queue = shard.sessions[key];
  const bool idle = queue.current == nullptr && queue.pending.empty();

  if (options_.coalesce && op == Op::kPostAnswers) {
    // Merge behind the newest same-session post group: the pending tail,
    // or the dispatched-but-not-started current. Either way the whole
    // group runs as one engine pass and one journal commit.
    Group* target = nullptr;
    if (!queue.pending.empty() &&
        queue.pending.back()->kind == Group::Kind::kPosts) {
      target = queue.pending.back().get();
    } else if (queue.pending.empty() && queue.current != nullptr &&
               queue.current->kind == Group::Kind::kPosts &&
               !queue.current->closed) {
      target = queue.current.get();
    }
    if (target != nullptr) {
      target->items.push_back(std::move(item));
      shard.coalesced_folds_total->Add();
      coalesced_posts_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }
  if (options_.coalesce && IsRead(op)) {
    if (idle && shard.open_reads != nullptr && !shard.open_reads->closed &&
        static_cast<int>(shard.open_reads->items.size()) <
            options_.max_read_batch) {
      // Cross-session batching: the shard's open read group is dispatched
      // but not yet running; ride along under its single epoch pin.
      shard.open_reads->items.push_back(std::move(item));
      shard.open_reads->sessions.insert(key);
      queue.current = shard.open_reads;
      shard.batched_reads_total->Add();
      batched_reads_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    if (!idle && !queue.pending.empty() &&
        queue.pending.back()->kind == Group::Kind::kReads &&
        static_cast<int>(queue.pending.back()->items.size()) <
            options_.max_read_batch) {
      queue.pending.back()->items.push_back(std::move(item));
      shard.batched_reads_total->Add();
      batched_reads_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }

  auto group = std::make_shared<Group>();
  if (options_.coalesce && op == Op::kPostAnswers) {
    group->kind = Group::Kind::kPosts;
  } else if (options_.coalesce && IsRead(op)) {
    group->kind = Group::Kind::kReads;
  } else {
    group->kind = Group::Kind::kSingle;
  }
  group->sessions.insert(key);
  group->items.push_back(std::move(item));
  ++shard.outstanding;
  if (idle) {
    queue.current = group;
    if (group->kind == Group::Kind::kReads) shard.open_reads = group;
    DispatchLocked(shard, shard_index, group);
  } else {
    queue.pending.push_back(std::move(group));
  }
}

void Runtime::DispatchLocked(Shard& shard, int shard_index,
                             const std::shared_ptr<Group>& group) {
  Scheduler::Request job;
  // The runtime owns per-session ordering (one group per session in
  // flight); scheduler lanes stay out of the way.
  job.session_id.clear();
  if (group->kind == Group::Kind::kSingle) {
    Item& item = group->items.front();
    if (item.has_deadline) {
      const auto remaining =
          item.deadline_at - std::chrono::steady_clock::now();
      // An already-expired deadline still goes through the scheduler so
      // its expired-in-queue accounting (and status text) applies.
      job.deadline = std::max<std::chrono::steady_clock::duration>(
          remaining, std::chrono::nanoseconds(1));
    }
    if (!item.request.session.empty()) {
      job.cancel =
          shard.manager->CancelSourceFor(item.request.session).source;
    }
  }
  job.work = [this, shard_index, group] {
    ExecuteGroup(shard_index, group);
    return group->kind == Group::Kind::kSingle
               ? group->single_response.status
               : util::Status::OK();
  };
  job.done = [this, shard_index, group](const util::Status& status) {
    if (group->kind == Group::Kind::kSingle) {
      // Fires even when the scheduler expired the request before work ran
      // (work() skipped) — settle the waiting accounting either way.
      AccountStart(*shards_[shard_index], group);
      Item& item = group->items.front();
      Response response = std::move(group->single_response);
      if (status.code() != response.status.code()) {
        // The scheduler overruled the work's own outcome: expiry before
        // execution, or mid-execution cancellation remapped to a deadline
        // miss. Keep any partial-effect report; drop the payload.
        response.id = item.request.id;
        response.status = status;
        response.payload = Response::None{};
      }
      completed_.fetch_add(1, std::memory_order_relaxed);
      item.done(std::move(response));
    }
    OnGroupDone(shard_index, group);
  };
  const util::Status admitted = shard.scheduler->Submit(std::move(job));
  if (!admitted.ok()) {
    // Unreachable by construction (the scheduler queue is sized past the
    // runtime's own admission cap); fail the items loudly if it ever is.
    group->closed = true;
    shard.waiting -= static_cast<int>(group->items.size());
    for (Item& item : group->items) {
      completed_.fetch_add(1, std::memory_order_relaxed);
      item.done(ErrorResponse(item.request.id, admitted));
    }
    for (const std::string& key : group->sessions) {
      const auto it = shard.sessions.find(key);
      if (it != shard.sessions.end() && it->second.current == group) {
        it->second.current = nullptr;
        if (it->second.pending.empty()) shard.sessions.erase(it);
      }
    }
    if (shard.open_reads == group) shard.open_reads = nullptr;
    if (--shard.outstanding == 0) shard.drain_cv.notify_all();
  }
}

void Runtime::AccountStart(Shard& shard,
                           const std::shared_ptr<Group>& group) {
  std::lock_guard<std::mutex> lock(shard.mu);
  if (group->closed) return;
  group->closed = true;
  shard.waiting -= static_cast<int>(group->items.size());
  if (shard.open_reads == group) shard.open_reads = nullptr;
}

Response Runtime::ExecuteSingle(int shard_index, const Request& request) {
  Shard& shard = *shards_[shard_index];
  if (request.op == Op::kCreateSession) {
    Response response;
    response.id = request.id;
    std::optional<core::SemanticsId> semantics;  // none: the default
    if (!request.semantics.empty()) {
      semantics = core::SemanticsFromName(request.semantics);
      if (!semantics.has_value()) {
        response.status = util::Status::InvalidArgument(
            "unknown ranking semantics '" + request.semantics + "'");
        return response;
      }
    }
    util::StatusOr<std::string> created =
        shard.manager->CreateSession(request.session, semantics);
    if (!created.ok()) {
      response.status = created.status();
    } else {
      response.payload = Response::Created{*std::move(created)};
    }
    return response;
  }
  return ExecuteRequest(*shard.manager, shard.scheduler.get(), request);
}

void Runtime::ExecuteGroup(int shard_index,
                           const std::shared_ptr<Group>& group) {
  Shard& shard = *shards_[shard_index];
  AccountStart(shard, group);
  if (group->kind == Group::Kind::kSingle) {
    group->single_response = ExecuteSingle(shard_index,
                                           group->items.front().request);
    return;
  }
  const auto now = std::chrono::steady_clock::now();
  auto expired = [&now](const Item& item) {
    return item.has_deadline && now >= item.deadline_at;
  };
  auto respond_expired = [this](Item& item) {
    deadline_misses_.fetch_add(1, std::memory_order_relaxed);
    completed_.fetch_add(1, std::memory_order_relaxed);
    item.done(ErrorResponse(item.request.id, ExpiredInQueue()));
  };

  if (group->kind == Group::Kind::kPosts) {
    const std::string& session = *group->sessions.begin();
    std::vector<SessionManager::PostBatch> batches;
    std::vector<Item*> live;
    for (Item& item : group->items) {
      if (expired(item)) {
        respond_expired(item);
        continue;
      }
      SessionManager::PostBatch batch;
      batch.answers = item.request.answers;
      batches.push_back(std::move(batch));
      live.push_back(&item);
    }
    util::Status outer = util::Status::OK();
    if (!live.empty()) {
      outer = shard.manager->PostAnswersBatched(session, &batches);
    }
    for (size_t i = 0; i < live.size(); ++i) {
      Item& item = *live[i];
      Response response;
      response.id = item.request.id;
      if (!outer.ok()) {
        response.status = outer;
      } else if (!batches[i].status.ok()) {
        response.status = batches[i].status;
        // Same rule as the sequential path: a failed batch that had
        // partial effect reports it (an unknown session had none).
        if (batches[i].status.code() != util::Status::Code::kNotFound) {
          response.partial = batches[i].report;
        }
      } else {
        response.payload = Response::Posted{batches[i].report};
      }
      completed_.fetch_add(1, std::memory_order_relaxed);
      item.done(std::move(response));
    }
    return;
  }

  // kReads: every read of the group shares ONE epoch pin over the shard's
  // base artifacts — the batching this group exists for.
  const util::EpochManager::ReadGuard pin = shard.manager->PinArtifacts();
  for (Item& item : group->items) {
    if (expired(item)) {
      respond_expired(item);
      continue;
    }
    Response response = ExecuteRequest(*shard.manager, shard.scheduler.get(),
                                       item.request);
    completed_.fetch_add(1, std::memory_order_relaxed);
    item.done(std::move(response));
  }
}

void Runtime::OnGroupDone(int shard_index,
                          const std::shared_ptr<Group>& group) {
  Shard& shard = *shards_[shard_index];
  std::lock_guard<std::mutex> lock(shard.mu);
  for (const std::string& key : group->sessions) {
    const auto it = shard.sessions.find(key);
    if (it == shard.sessions.end() || it->second.current != group) continue;
    SessionQueue& queue = it->second;
    queue.current = nullptr;
    if (!queue.pending.empty()) {
      queue.current = std::move(queue.pending.front());
      queue.pending.pop_front();
      DispatchLocked(shard, shard_index, queue.current);
    } else {
      shard.sessions.erase(it);
    }
  }
  if (shard.open_reads == group) shard.open_reads = nullptr;
  if (--shard.outstanding == 0) shard.drain_cv.notify_all();
}

Response Runtime::MetricsBarrier(const Request& request) {
  // Consistent snapshot: wait for every shard to drain what was admitted
  // before this call, then read them all.
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::unique_lock<std::mutex> lock(shard->mu);
    shard->drain_cv.wait(lock, [&] { return shard->outstanding == 0; });
  }
  std::vector<const SessionManager*> managers;
  std::vector<const Scheduler*> schedulers;
  managers.reserve(shards_.size());
  schedulers.reserve(shards_.size());
  for (const std::unique_ptr<Shard>& shard : shards_) {
    managers.push_back(shard->manager.get());
    schedulers.push_back(shard->scheduler.get());
  }
  Response response;
  response.id = request.id;
  Response::Metrics metrics = BuildMetrics(managers, schedulers);
  // Report client-visible request counts, not internal group counts, and
  // fold in the admissions and expiries the runtime handles itself.
  metrics.submitted = submitted_.load(std::memory_order_relaxed);
  metrics.executed = completed_.load(std::memory_order_relaxed);
  metrics.shed += shed_.load(std::memory_order_relaxed);
  metrics.deadline_misses +=
      deadline_misses_.load(std::memory_order_relaxed);
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
  // Drain the runtime's own queues first: a pending group is dispatched
  // to its scheduler only as its predecessor finishes, so the schedulers
  // must keep accepting until outstanding hits zero everywhere.
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
  stats.coalesced_posts = coalesced_posts_.load(std::memory_order_relaxed);
  stats.batched_reads = batched_reads_.load(std::memory_order_relaxed);
  stats.deadline_misses = deadline_misses_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace ptk::serve
