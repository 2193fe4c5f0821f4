// Serving runtime throughput/latency: requests per second, p50/p99
// latency, and shed rate as the number of concurrent sessions grows —
// plus the shared-everything sweep: update_working sessions folding
// answers against the ONE shared base (membership calculator, PB-tree,
// epoch domain), reporting resident delta bytes per session from
// SessionManager::MemoryReport().
//
// Each session runs a realistic op mix (next_pairs, post_answers,
// quality) through serve::Runtime::Submit, the path ptk_server serves;
// sessions are independent and share the base artifacts, so added
// sessions cost queueing, not index rebuilds. The queue is sized below
// the total offered load on purpose so the admission-control path (shed
// + retry) is part of what is measured.
//
// Run: ./serve_bench   (PTK_BENCH_JSON=<path> for machine-readable rows)

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <cmath>
#include <condition_variable>
#include <cstdlib>
#include <filesystem>
#include <random>

#include "harness.h"
#include "data/synthetic.h"
#include "serve/message.h"
#include "serve/runtime.h"
#include "serve/session_manager.h"
#include "util/status.h"
#include "util/statusor.h"
#include "util/stopwatch.h"

namespace {

constexpr int kRequestsPerSession = 30;

double Percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const size_t index = static_cast<size_t>(
      p * static_cast<double>(sorted.size() - 1));
  return sorted[index];
}

}  // namespace

int main() {
  using Clock = std::chrono::steady_clock;
  ptk::bench::Banner(
      "Serving runtime: req/s, p50/p99 latency, shed rate vs sessions");
  ptk::bench::Row({"sessions", "req/s", "p50_ms", "p99_ms", "shed_rate"});

  ptk::data::SynOptions data_options;
  data_options.num_objects = ptk::bench::Scaled(24);
  data_options.avg_instances = 3;
  data_options.value_range = 100.0;
  data_options.cluster_width = 30.0;
  data_options.seed = 11;
  const ptk::model::Database db = ptk::data::MakeSynDataset(data_options);

  ptk::obs::BenchJsonWriter json;
  const int num_objects = data_options.num_objects;
  for (const int sessions : {1, 2, 4, 8, 16}) {
    ptk::serve::Runtime::Options options;
    options.manager.k = 5;
    options.manager.max_sessions = sessions;
    options.scheduler.workers = 2;
    options.queue_capacity = 2 * sessions;
    ptk::serve::Runtime runtime(db, options);

    std::mutex mu;
    std::condition_variable cv;
    int64_t created = 0;
    for (int s = 0; s < sessions; ++s) {
      ptk::serve::Request create;
      create.op = ptk::serve::Op::kCreateSession;
      runtime.Submit(std::move(create), [&](ptk::serve::Response response) {
        if (!response.status.ok()) {
          std::fprintf(stderr, "%s\n", response.status.ToString().c_str());
          std::exit(1);
        }
        std::lock_guard<std::mutex> lock(mu);
        ++created;
        cv.notify_all();
      });
    }
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return created == sessions; });
    }

    std::vector<double> latencies;  // seconds, admitted requests only
    int64_t attempted = 0;
    int64_t shed = 0;

    ptk::util::Stopwatch wall;
    // Offered load: every session keeps kRequestsPerSession requests
    // cycling through select / fold / quality. Submission is open-loop.
    for (int r = 0; r < kRequestsPerSession; ++r) {
      for (int s = 0; s < sessions; ++s) {
        ptk::serve::Request request;
        request.session = "s" + std::to_string(s + 1);
        const int phase = r % 3;
        if (phase == 0) {
          request.op = ptk::serve::Op::kNextPairs;
        } else if (phase == 1) {
          request.op = ptk::serve::Op::kPostAnswers;
          const uint32_t a = static_cast<uint32_t>((r + s) % num_objects);
          const uint32_t b = static_cast<uint32_t>((r + s + 1) % num_objects);
          request.answers = {{std::min(a, b), std::max(a, b)}};
        } else {
          request.op = ptk::serve::Op::kQuality;
        }
        // Closed-ish loop: a shed is retried after a short backoff (the
        // response carries a retry hint), so shed_rate measures how often
        // the bounded queue pushed back rather than lost work. Shed
        // responses arrive inline, so `was_shed` is read right after
        // Submit returns; no other response touches it.
        for (;;) {
          ++attempted;
          bool was_shed = false;
          const auto submitted_at = Clock::now();
          runtime.Submit(request, [&, submitted_at](
                                      ptk::serve::Response response) {
            if (response.retry_after_ms >= 0) {
              was_shed = true;
              return;
            }
            const double seconds =
                std::chrono::duration<double>(Clock::now() - submitted_at)
                    .count();
            std::lock_guard<std::mutex> lock(mu);
            latencies.push_back(seconds);
          });
          if (!was_shed) break;
          ++shed;
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
      }
    }
    runtime.Shutdown();
    const double elapsed = wall.ElapsedSeconds();

    std::sort(latencies.begin(), latencies.end());
    const double completed = static_cast<double>(latencies.size());
    const double rps = completed / elapsed;
    const double p50 = Percentile(latencies, 0.5) * 1e3;
    const double p99 = Percentile(latencies, 0.99) * 1e3;
    const double shed_rate =
        static_cast<double>(shed) / static_cast<double>(attempted);
    ptk::bench::Row({std::to_string(sessions), ptk::bench::Fmt(rps, 1),
                     ptk::bench::Fmt(p50, 3), ptk::bench::Fmt(p99, 3),
                     ptk::bench::Fmt(shed_rate, 3)});
    json.Record("serve/sessions=" + std::to_string(sessions), elapsed,
                options.scheduler.workers, sessions, options.manager.k,
                ptk::bench::Scale());
  }

  // Shared-everything delta sessions: every session folds `answers`
  // crowdsourced comparisons into its own working state. All sessions
  // run concurrently against one manager — one base database, one
  // membership calculator, one PB-tree — so the cost of an added session
  // is its delta (overlay overrides, membership prefix columns, tree
  // path copies), which MemoryReport() measures directly.
  ptk::bench::Banner(
      "Delta sessions (update_working): req/s, p50, resident bytes/session");
  ptk::bench::Row({"sessions", "answers", "req/s", "p50_ms", "bytes/session"});
  for (const int sessions : {4, 16, 64}) {
    for (const int answers : {2, 8}) {
      ptk::serve::SessionManager::Options manager_options;
      manager_options.k = 5;
      manager_options.update_working = true;
      manager_options.max_sessions = sessions;
      ptk::serve::SessionManager manager(db, manager_options);

      std::vector<std::string> ids;
      for (int s = 0; s < sessions; ++s) {
        ptk::util::StatusOr<std::string> id = manager.CreateSession();
        if (!id.ok()) {
          std::fprintf(stderr, "%s\n", id.status().ToString().c_str());
          return 1;
        }
        ids.push_back(*id);
      }

      std::mutex mu;
      std::vector<double> latencies;  // seconds per op (select or fold)
      ptk::util::Stopwatch wall;
      std::vector<std::thread> threads;
      threads.reserve(sessions);
      for (int s = 0; s < sessions; ++s) {
        threads.emplace_back([&manager, &mu, &latencies, &ids, s, answers] {
          const std::string& id = ids[s];
          for (int round = 0; round < answers; ++round) {
            auto op_start = Clock::now();
            ptk::util::StatusOr<std::vector<ptk::core::ScoredPair>> pairs =
                manager.NextPairs(id, 1);
            if (!pairs.ok() || pairs->empty()) return;
            double select_s =
                std::chrono::duration<double>(Clock::now() - op_start)
                    .count();
            const auto a = (*pairs)[0].a;
            const auto b = (*pairs)[0].b;
            // Deterministic answer direction, as a real crowd would split.
            const bool forward = (s + round) % 2 == 0;
            op_start = Clock::now();
            ptk::serve::PostReport report;
            const ptk::util::Status posted = manager.PostAnswers(
                id,
                {forward ? std::make_pair(std::min(a, b), std::max(a, b))
                         : std::make_pair(std::max(a, b), std::min(a, b))},
                &report);
            if (!posted.ok()) return;
            const double fold_s =
                std::chrono::duration<double>(Clock::now() - op_start)
                    .count();
            std::lock_guard<std::mutex> lock(mu);
            latencies.push_back(select_s);
            latencies.push_back(fold_s);
          }
        });
      }
      for (std::thread& t : threads) t.join();
      const double elapsed = wall.ElapsedSeconds();

      int64_t total_bytes = 0;
      for (const auto& session : manager.MemoryReport()) {
        total_bytes += session.bytes;
      }
      const int64_t bytes_per_session = total_bytes / sessions;

      std::sort(latencies.begin(), latencies.end());
      const double rps = static_cast<double>(latencies.size()) / elapsed;
      const double p50 = Percentile(latencies, 0.5) * 1e3;
      ptk::bench::Row({std::to_string(sessions), std::to_string(answers),
                       ptk::bench::Fmt(rps, 1), ptk::bench::Fmt(p50, 3),
                       std::to_string(bytes_per_session)});
      json.Record("serve/delta/sessions=" + std::to_string(sessions) +
                      ",answers=" + std::to_string(answers) +
                      ",bytes_per_session=" +
                      std::to_string(bytes_per_session),
                  elapsed, sessions, answers, manager_options.k,
                  ptk::bench::Scale());
    }
  }

  // Sharded runtime under open-loop Zipfian load: the SAME precomputed
  // request schedule (session picked by popularity rank ~ 1/r^0.99, ~70%
  // reads / 30% posts with posts arriving in same-session runs of 3 — a
  // crowd answers a round in a clump — fixed wall-clock pacing) is
  // offered to every shard count. Submission never waits for completions
  // and never retries — a request the admission gate rejects is counted
  // shed and dropped, so shed_rate compares drain speed at equal offered
  // load. Sessions are journaled with fsync on (the durable serving
  // configuration), so every post group pays one commit fsync: the
  // runtime merges a clump into ONE engine pass and one fsync, and
  // batches reads under one epoch pin, which is what drains the queue.
  // (Earlier versions also ran each shard count with grouping off, one
  // task per request: it shed more at every shard count, and that path is
  // gone.) This section sizes its own dataset (fixed, not
  // PTK_BENCH_SCALE-scaled): it measures queueing and grouping, and must
  // stay in the contended-but-not-saturated regime where drain speed
  // decides shed.
  ptk::bench::Banner(
      "Sharded runtime (open-loop Zipfian): shed rate vs shards");
  ptk::bench::Row({"shards", "offered", "shed", "shed_rate", "merged_posts",
                   "batched_reads", "req/s", "p50_ms", "p99_ms"});
  {
    constexpr int kZipfSessions = 24;
    constexpr double kZipfExponent = 0.99;
    constexpr int kWaves = 240;
    constexpr int kWaveBurst = 24;
    constexpr int kPostClump = 3;
    constexpr auto kWavePace = std::chrono::microseconds(500);

    ptk::data::SynOptions zipf_data_options = data_options;
    zipf_data_options.num_objects = 12;
    const ptk::model::Database zipf_db =
        ptk::data::MakeSynDataset(zipf_data_options);

    // Schedule: (session index, op kind) per request, shared verbatim by
    // every configuration below.
    struct Slot {
      int session;
      int op;  // 0 = quality, 1 = distribution, 2 = post_answers
    };
    std::vector<Slot> schedule;
    {
      std::mt19937_64 rng(0x5eed5eedULL);
      std::vector<double> weights(kZipfSessions);
      for (int r = 0; r < kZipfSessions; ++r) {
        weights[r] = 1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent);
      }
      std::discrete_distribution<int> pick_session(weights.begin(),
                                                   weights.end());
      std::uniform_real_distribution<double> u(0.0, 1.0);
      schedule.reserve(static_cast<size_t>(kWaves) * kWaveBurst);
      while (schedule.size() <
             static_cast<size_t>(kWaves) * kWaveBurst) {
        Slot slot;
        slot.session = pick_session(rng);
        const double roll = u(rng);
        if (roll < 0.70) {
          slot.op = roll < 0.35 ? 0 : 1;
          schedule.push_back(slot);
        } else {
          slot.op = 2;
          for (int c = 0; c < kPostClump; ++c) schedule.push_back(slot);
        }
      }
      schedule.resize(static_cast<size_t>(kWaves) * kWaveBurst);
    }
    const int zipf_objects = zipf_data_options.num_objects;

    for (const int shards : {1, 2, 4}) {
      char dir_template[] = "/tmp/ptk_serve_bench_XXXXXX";
      const char* persist_dir = mkdtemp(dir_template);
      if (persist_dir == nullptr) {
        std::fprintf(stderr, "mkdtemp failed\n");
        return 1;
      }

      ptk::serve::Runtime::Options options;
      options.shards = shards;
      options.manager.k = 5;
      options.manager.max_sessions = kZipfSessions;
      options.manager.persist.dir = persist_dir;
      options.manager.persist.fsync = true;
      options.scheduler.workers = 2;
      options.queue_capacity = 12;
      ptk::serve::Runtime runtime(zipf_db, options);

      // Pre-create the session population; ids are rank order ("s1" is
      // the hottest). Creates are synchronous (count them in).
      std::mutex mu;
      std::condition_variable cv;
      int64_t answered = 0;
      std::vector<double> served_latencies;  // seconds, non-shed only
      auto await = [&](int64_t target) {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return answered >= target; });
      };
      auto count_only = [&](ptk::serve::Response) {
        std::lock_guard<std::mutex> lock(mu);
        ++answered;
        cv.notify_all();
      };
      for (int s = 0; s < kZipfSessions; ++s) {
        ptk::serve::Request create;
        create.op = ptk::serve::Op::kCreateSession;
        runtime.Submit(std::move(create), count_only);
      }
      await(kZipfSessions);

      ptk::util::Stopwatch wall;
      const auto start = Clock::now();
      int64_t sequence = 0;
      for (int wave = 0; wave < kWaves; ++wave) {
        for (int b = 0; b < kWaveBurst; ++b) {
          const Slot& slot = schedule[static_cast<size_t>(wave) *
                                          kWaveBurst + b];
          ptk::serve::Request request;
          request.session = "s" + std::to_string(slot.session + 1);
          if (slot.op == 0) {
            request.op = ptk::serve::Op::kQuality;
          } else if (slot.op == 1) {
            request.op = ptk::serve::Op::kDistribution;
            request.limit = 3;
          } else {
            request.op = ptk::serve::Op::kPostAnswers;
            const uint32_t a =
                static_cast<uint32_t>(sequence % zipf_objects);
            const uint32_t b2 =
                static_cast<uint32_t>((sequence + 1) % zipf_objects);
            request.answers = {{std::min(a, b2), std::max(a, b2)}};
          }
          ++sequence;
          const auto submitted_at = Clock::now();
          runtime.Submit(
              std::move(request),
              [&, submitted_at](ptk::serve::Response response) {
                const double seconds = std::chrono::duration<double>(
                                           Clock::now() - submitted_at)
                                           .count();
                std::lock_guard<std::mutex> lock(mu);
                if (response.status.code() !=
                    ptk::util::Status::Code::kResourceExhausted) {
                  served_latencies.push_back(seconds);
                }
                ++answered;
                cv.notify_all();
              });
        }
        // Absolute pacing: the offered schedule is wall-clock fixed and
        // identical for every configuration, drift-free.
        std::this_thread::sleep_until(start + (wave + 1) * kWavePace);
      }
      const int64_t offered = kZipfSessions + kWaves * kWaveBurst;
      await(offered);  // shed responses arrive inline, so this drains
      const double elapsed = wall.ElapsedSeconds();
      const ptk::serve::Runtime::Stats stats = runtime.stats();
      runtime.Shutdown();
      std::error_code ec;
      std::filesystem::remove_all(persist_dir, ec);

      const int64_t load = kWaves * kWaveBurst;
      const double shed_rate = static_cast<double>(stats.shed) /
                               static_cast<double>(load);
      const double rps =
          static_cast<double>(stats.completed) / elapsed;
      std::sort(served_latencies.begin(), served_latencies.end());
      const double p50 = Percentile(served_latencies, 0.5) * 1e3;
      const double p99 = Percentile(served_latencies, 0.99) * 1e3;
      ptk::bench::Row({std::to_string(shards), std::to_string(load),
                       std::to_string(stats.shed),
                       ptk::bench::Fmt(shed_rate, 3),
                       std::to_string(stats.merged_posts),
                       std::to_string(stats.batched_reads),
                       ptk::bench::Fmt(rps, 1), ptk::bench::Fmt(p50, 3),
                       ptk::bench::Fmt(p99, 3)});
      json.Record("serve/runtime/shards=" + std::to_string(shards) +
                      ",offered=" + std::to_string(load) + ",shed=" +
                      std::to_string(stats.shed) + ",shed_rate=" +
                      ptk::bench::Fmt(shed_rate, 4) + ",p50_ms=" +
                      ptk::bench::Fmt(p50, 3) + ",p99_ms=" +
                      ptk::bench::Fmt(p99, 3),
                  elapsed, options.scheduler.workers, shards,
                  options.manager.k, ptk::bench::Scale());
    }
  }
  return 0;
}
