// Tests for the parallel execution layer (src/util/thread_pool.h) and its
// determinism contract: the selectors return bit-identical ScoredPair lists
// for every shard count, a membership calculator shared across threads
// answers as it does serially, and the sharded WorldSampler is
// reproducible at a fixed (seed, shard count). These tests drive an
// explicit 8-thread pool so the parallel code paths run with real
// concurrency even when the global pool resolves to a single thread (e.g.
// PTK_THREADS=1 or a 1-core host), and so a TSan build
// (cmake -DPTK_SANITIZE=thread) exercises them.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <utility>
#include <vector>

#include "core/bound_selector.h"
#include "core/brute_force_selector.h"
#include "pw/sampler.h"
#include "rank/membership.h"
#include "test_util.h"
#include "util/thread_pool.h"

namespace ptk {
namespace {

util::ParallelConfig WithShards(util::ThreadPool* pool, int shards) {
  util::ParallelConfig config;
  config.threads = shards;
  config.pool = pool;
  return config;
}

TEST(ThreadPoolTest, RunsEveryTaskExactlyOnce) {
  util::ThreadPool pool(8);
  EXPECT_EQ(pool.num_threads(), 8);
  constexpr int kTasks = 1000;
  std::vector<std::atomic<int>> hits(kTasks);
  pool.Run(kTasks, [&](int i) { hits[i].fetch_add(1); });
  for (int i = 0; i < kTasks; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPoolTest, RepeatedBatchesStayIsolated) {
  // A worker waking late from batch N must never claim a task of batch
  // N+1; every batch must see each of its own indices exactly once.
  util::ThreadPool pool(4);
  for (int batch = 0; batch < 200; ++batch) {
    const int tasks = 1 + batch % 7;
    std::vector<std::atomic<int>> hits(tasks);
    pool.Run(tasks, [&](int i) { hits[i].fetch_add(1); });
    for (int i = 0; i < tasks; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "batch " << batch << " task " << i;
    }
  }
}

TEST(ThreadPoolTest, SingleThreadPoolRunsInline) {
  util::ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1);
  std::atomic<int> sum{0};
  pool.Run(10, [&](int i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), 45);
}

TEST(ThreadPoolTest, ResolveThreadsPrecedence) {
  EXPECT_EQ(util::ThreadPool::ResolveThreads(3), 3);
  ::setenv("PTK_THREADS", "5", 1);
  EXPECT_EQ(util::ThreadPool::ResolveThreads(0), 5);
  EXPECT_EQ(util::ThreadPool::ResolveThreads(2), 2);  // explicit wins
  ::unsetenv("PTK_THREADS");
  EXPECT_GE(util::ThreadPool::ResolveThreads(0), 1);
}

TEST(ParallelForTest, ShardsCoverRangeContiguously) {
  util::ThreadPool pool(8);
  for (const int64_t n : {0, 1, 7, 8, 9, 1000}) {
    std::vector<std::atomic<int>> hits(static_cast<size_t>(n));
    std::atomic<int> shards_seen{0};
    util::ParallelFor(WithShards(&pool, 8), n,
                      [&](int shard, int64_t begin, int64_t end) {
                        EXPECT_GE(shard, 0);
                        EXPECT_LT(shard, 8);
                        EXPECT_LE(begin, end);
                        shards_seen.fetch_add(1);
                        for (int64_t i = begin; i < end; ++i) {
                          hits[static_cast<size_t>(i)].fetch_add(1);
                        }
                      });
    for (int64_t i = 0; i < n; ++i) {
      ASSERT_EQ(hits[static_cast<size_t>(i)].load(), 1)
          << "n=" << n << " i=" << i;
    }
    EXPECT_LE(shards_seen.load(), 8);
  }
}

TEST(ParallelForTest, SingleShardRunsWholeRangeInline) {
  // One shard must be one call covering [0, n) — that is what keeps the
  // serial path bit-compatible with historical behaviour.
  int calls = 0;
  util::ParallelFor(WithShards(nullptr, 1), 17,
                    [&](int shard, int64_t begin, int64_t end) {
                      ++calls;
                      EXPECT_EQ(shard, 0);
                      EXPECT_EQ(begin, 0);
                      EXPECT_EQ(end, 17);
                    });
  EXPECT_EQ(calls, 1);
}

void ExpectSamePairs(const std::vector<core::ScoredPair>& serial,
                     const std::vector<core::ScoredPair>& parallel,
                     const char* what) {
  ASSERT_EQ(serial.size(), parallel.size()) << what;
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].a, parallel[i].a) << what << " rank " << i;
    EXPECT_EQ(serial[i].b, parallel[i].b) << what << " rank " << i;
    // Bit-identical, not merely close: the parallel path must run the very
    // same per-pair computation and the same deterministic merge.
    EXPECT_EQ(serial[i].ei_estimate, parallel[i].ei_estimate)
        << what << " rank " << i;
    EXPECT_EQ(serial[i].ei_lower, parallel[i].ei_lower)
        << what << " rank " << i;
    EXPECT_EQ(serial[i].ei_upper, parallel[i].ei_upper)
        << what << " rank " << i;
  }
}

class ParallelEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ParallelEquivalence, BruteForceMatchesSerial) {
  const model::Database db = testing::RandomDb(10, 3, GetParam());
  util::ThreadPool pool(8);
  core::SelectorOptions serial_opts;
  serial_opts.k = 3;
  serial_opts.parallel = WithShards(nullptr, 1);
  core::SelectorOptions parallel_opts = serial_opts;
  parallel_opts.parallel = WithShards(&pool, 8);

  core::BruteForceSelector serial(db, serial_opts);
  core::BruteForceSelector parallel(db, parallel_opts);
  std::vector<core::ScoredPair> serial_out, parallel_out;
  ASSERT_TRUE(serial.SelectPairs(6, &serial_out).ok());
  ASSERT_TRUE(parallel.SelectPairs(6, &parallel_out).ok());
  EXPECT_EQ(serial_out.size(), 6u);
  ExpectSamePairs(serial_out, parallel_out, "BF");
}

TEST_P(ParallelEquivalence, BoundSelectorsMatchSerial) {
  // PBTREE and OPT evaluate inline and ignore options.parallel: a pool
  // must change neither their picks nor the work they do.
  const model::Database db = testing::RandomDb(14, 3, GetParam() + 900);
  util::ThreadPool pool(8);
  core::SelectorOptions serial_opts;
  serial_opts.k = 4;
  serial_opts.fanout = 3;
  serial_opts.parallel = WithShards(nullptr, 1);
  core::SelectorOptions parallel_opts = serial_opts;
  parallel_opts.parallel = WithShards(&pool, 8);

  for (const auto mode : {core::BoundSelector::Mode::kBasic,
                          core::BoundSelector::Mode::kOptimized}) {
    core::BoundSelector serial(db, serial_opts, mode);
    core::BoundSelector parallel(db, parallel_opts, mode);
    std::vector<core::ScoredPair> serial_out, parallel_out;
    ASSERT_TRUE(serial.SelectPairs(3, &serial_out).ok());
    ASSERT_TRUE(parallel.SelectPairs(3, &parallel_out).ok());
    ExpectSamePairs(serial_out, parallel_out, serial.name().c_str());
    EXPECT_EQ(parallel.stats().pairs_evaluated,
              serial.stats().pairs_evaluated)
        << serial.name();
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ParallelEquivalence,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(ParallelSamplerTest, FixedSeedAndShardCountReproduces) {
  const model::Database db = testing::RandomDb(20, 3, 77);
  const pw::WorldSampler sampler(db);
  util::ThreadPool pool(8);
  const auto parallel = WithShards(&pool, 8);

  pw::WorldSampler::Result first, second;
  ASSERT_TRUE(sampler
                  .Estimate(5, pw::OrderMode::kInsensitive, nullptr, 20000,
                            123, &first, parallel)
                  .ok());
  ASSERT_TRUE(sampler
                  .Estimate(5, pw::OrderMode::kInsensitive, nullptr, 20000,
                            123, &second, parallel)
                  .ok());
  EXPECT_EQ(first.samples, second.samples);
  EXPECT_EQ(first.accepted, second.accepted);
  ASSERT_EQ(first.distribution.size(), second.distribution.size());
  for (const auto& [key, prob] : first.distribution.entries()) {
    EXPECT_EQ(prob, second.distribution.ProbOf(key));
  }
}

TEST(ParallelSamplerTest, OneShardMatchesSerialStream) {
  // shard 0's stream seed equals the caller's seed, so a 1-shard run is
  // bit-compatible with the historical serial sampler.
  const model::Database db = testing::RandomDb(15, 3, 99);
  const pw::WorldSampler sampler(db);
  util::ThreadPool pool(8);

  pw::WorldSampler::Result serial, one_shard;
  ASSERT_TRUE(sampler
                  .Estimate(4, pw::OrderMode::kInsensitive, nullptr, 5000,
                            321, &serial, WithShards(nullptr, 1))
                  .ok());
  ASSERT_TRUE(sampler
                  .Estimate(4, pw::OrderMode::kInsensitive, nullptr, 5000,
                            321, &one_shard, WithShards(&pool, 1))
                  .ok());
  EXPECT_EQ(serial.accepted, one_shard.accepted);
  ASSERT_EQ(serial.distribution.size(), one_shard.distribution.size());
  for (const auto& [key, prob] : serial.distribution.entries()) {
    EXPECT_EQ(prob, one_shard.distribution.ProbOf(key));
  }
}

TEST(ParallelSamplerTest, ShardCountsAgreeStatistically) {
  // Different shard counts draw different streams, so distributions are
  // not bitwise equal — but both estimate the same ground truth.
  const model::Database db = testing::RandomDb(12, 3, 55);
  const pw::WorldSampler sampler(db);
  util::ThreadPool pool(8);

  pw::WorldSampler::Result one, eight;
  ASSERT_TRUE(sampler
                  .Estimate(4, pw::OrderMode::kInsensitive, nullptr, 40000,
                            7, &one, WithShards(&pool, 1))
                  .ok());
  ASSERT_TRUE(sampler
                  .Estimate(4, pw::OrderMode::kInsensitive, nullptr, 40000,
                            7, &eight, WithShards(&pool, 8))
                  .ok());
  EXPECT_EQ(one.samples, eight.samples);
  EXPECT_NEAR(one.distribution.Entropy(), eight.distribution.Entropy(),
              0.05);
}

TEST(ParallelMembershipTest, BatchMatchesPerPairTables) {
  // One calculator shared by concurrent selections (the serving runtime's
  // sessions share the base calculator): a batch of pair-table and
  // node-span queries run from 8 threads must match the serial answers.
  const model::Database db = testing::RandomDb(16, 3, 33);
  const rank::MembershipCalculator calc(db, 4);
  util::ThreadPool pool(8);

  std::vector<std::pair<model::ObjectId, model::ObjectId>> pairs;
  for (model::ObjectId a = 0; a < db.num_objects(); ++a) {
    for (model::ObjectId b = a + 1; b < db.num_objects(); b += 3) {
      pairs.emplace_back(a, b);
    }
  }
  const auto span_of = [&db](const std::pair<model::ObjectId,
                                             model::ObjectId>& pair) {
    const model::UncertainObject& lo = db.object(pair.first);
    const model::UncertainObject& hi = db.object(pair.second);
    return std::pair(
        std::min(lo.instances().front().value, hi.instances().front().value),
        std::max(lo.instances().back().value, hi.instances().back().value));
  };
  const int n = static_cast<int>(pairs.size());
  std::vector<rank::MembershipCalculator::PairTables> tables(n);
  std::vector<rank::MembershipCalculator::PairConditionals> spans(n);
  pool.Run(n, [&](int i) {
    tables[i] = calc.ComputePairTables(pairs[i].first, pairs[i].second);
    const auto [lo, hi] = span_of(pairs[i]);
    spans[i] = calc.SpanPairMembership(lo, hi);
  });
  for (int i = 0; i < n; ++i) {
    const auto single =
        calc.ComputePairTables(pairs[i].first, pairs[i].second);
    ASSERT_EQ(tables[i].pt, single.pt) << "pair " << i;
    ASSERT_EQ(tables[i].npt, single.npt) << "pair " << i;
    const auto [lo, hi] = span_of(pairs[i]);
    const auto span = calc.SpanPairMembership(lo, hi);
    ASSERT_EQ(spans[i].both, span.both) << "pair " << i;
    ASSERT_EQ(spans[i].neither, span.neither) << "pair " << i;
  }
}

TEST(ParallelMembershipTest, ConcurrentLazySinglesInit) {
  // Many threads racing into the lazily-built singles table must agree;
  // under TSan this validates the std::call_once path.
  const model::Database db = testing::RandomDb(20, 3, 44);
  const rank::MembershipCalculator calc(db, 5);
  util::ThreadPool pool(8);
  std::vector<double> probs(static_cast<size_t>(db.num_objects()));
  pool.Run(db.num_objects(),
           [&](int o) { probs[o] = calc.ObjectTopKProbability(o); });
  for (model::ObjectId o = 0; o < db.num_objects(); ++o) {
    EXPECT_EQ(probs[o], calc.ObjectTopKProbability(o)) << o;
  }
}

TEST(SharedMembershipTest, MembershipForReusesCompatibleCalculator) {
  const model::Database db = testing::RandomDb(10, 3, 11);
  const model::Database other = testing::RandomDb(10, 3, 12);
  core::SelectorOptions options;
  options.k = 3;
  options.membership = std::make_shared<rank::MembershipCalculator>(db, 3);

  EXPECT_EQ(options.MembershipFor(db).get(), options.membership.get());
  // Different database or different k: a fresh calculator, never a bogus
  // reuse.
  EXPECT_NE(options.MembershipFor(other).get(), options.membership.get());
  options.k = 4;
  EXPECT_NE(options.MembershipFor(db).get(), options.membership.get());
}

TEST(SharedMembershipTest, SelectorsShareOneCalculator) {
  const model::Database db = testing::RandomDb(12, 3, 21);
  core::SelectorOptions options;
  options.k = 3;
  options.fanout = 3;
  options.membership = std::make_shared<rank::MembershipCalculator>(db, 3);

  core::BoundSelector basic(db, options, core::BoundSelector::Mode::kBasic);
  core::BoundSelector opt(db, options,
                          core::BoundSelector::Mode::kOptimized);
  EXPECT_EQ(&basic.membership(), options.membership.get());
  EXPECT_EQ(&opt.membership(), options.membership.get());

  std::vector<core::ScoredPair> out;
  ASSERT_TRUE(basic.SelectPairs(1, &out).ok());
  ASSERT_TRUE(opt.SelectPairs(1, &out).ok());
}

}  // namespace
}  // namespace ptk
