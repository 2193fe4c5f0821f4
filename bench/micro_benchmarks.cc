// Micro-benchmarks (google-benchmark) for the library's hot kernels:
// pairwise probability, membership scans, Δ bounds, PB-tree construction,
// the top-k enumerator, and the parallel selection/sampling paths. These
// are the building blocks whose costs compose into the Figs. 12-13
// end-to-end numbers. Set PTK_BENCH_JSON=<path> to also write the results
// as a JSON array (see bench/harness.h).

#include <benchmark/benchmark.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/bound_selector.h"
#include "core/brute_force_selector.h"
#include "core/delta_bounds.h"
#include "data/synthetic.h"
#include "harness.h"
#include "pbtree/pair_stream.h"
#include "pbtree/pbtree.h"
#include "pw/sampler.h"
#include "pw/topk_enumerator.h"
#include "rank/membership.h"
#include "rank/pairwise_prob.h"
#include "rank/poisson_binomial.h"
#include "simd/kernels.h"
#include "util/entropy.h"
#include "util/thread_pool.h"

namespace {

const ptk::model::Database& SynDb(int n) {
  static std::map<int, ptk::model::Database>* cache =
      new std::map<int, ptk::model::Database>();
  auto it = cache->find(n);
  if (it == cache->end()) {
    ptk::data::SynOptions syn;
    syn.num_objects = n;
    syn.value_range = n * 2.0;
    syn.seed = 17;
    it = cache->emplace(n, ptk::data::MakeSynDataset(syn)).first;
  }
  return it->second;
}

void BM_BinaryEntropy(benchmark::State& state) {
  double x = 0.1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ptk::util::BinaryEntropy(x));
    x = x < 0.9 ? x + 0.01 : 0.1;
  }
}
BENCHMARK(BM_BinaryEntropy);

void BM_ProbGreater(benchmark::State& state) {
  const auto& db = SynDb(1000);
  ptk::model::ObjectId a = 0;
  for (auto _ : state) {
    const ptk::model::ObjectId b = (a + 17) % db.num_objects();
    benchmark::DoNotOptimize(
        ptk::rank::ProbGreater(db.object(a), db.object(b)));
    a = (a + 1) % db.num_objects();
  }
}
BENCHMARK(BM_ProbGreater);

void BM_MembershipBuild(benchmark::State& state) {
  const auto& db = SynDb(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    ptk::rank::MembershipCalculator calc(db, 10);
    benchmark::DoNotOptimize(calc.TopKProbability({0, 0}));
  }
}
BENCHMARK(BM_MembershipBuild)->Arg(1000)->Arg(5000);

void BM_PairTables(benchmark::State& state) {
  const auto& db = SynDb(2000);
  ptk::rank::MembershipCalculator calc(db, 10);
  ptk::model::ObjectId a = 0;
  for (auto _ : state) {
    const ptk::model::ObjectId b = (a + 11) % db.num_objects();
    benchmark::DoNotOptimize(
        calc.ComputePairTables(std::min(a, b), std::max(a, b)));
    a = (a + 7) % db.num_objects();
  }
}
BENCHMARK(BM_PairTables);

void BM_DeltaBounds(benchmark::State& state) {
  const auto& db = SynDb(2000);
  ptk::rank::MembershipCalculator calc(db, 10);
  const ptk::core::DeltaEstimator estimator(
      db, calc, ptk::pw::OrderMode::kInsensitive);
  ptk::model::ObjectId a = 0;
  for (auto _ : state) {
    const ptk::model::ObjectId b = (a + 11) % db.num_objects();
    benchmark::DoNotOptimize(
        estimator.Estimate(std::min(a, b), std::max(a, b)));
    a = (a + 7) % db.num_objects();
  }
}
BENCHMARK(BM_DeltaBounds);

void BM_PBTreeBulkLoad(benchmark::State& state) {
  const auto& db = SynDb(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    ptk::pbtree::PBTree::Options options;
    options.fanout = 8;
    const ptk::pbtree::PBTree tree(db, options);
    benchmark::DoNotOptimize(tree.num_nodes());
  }
}
BENCHMARK(BM_PBTreeBulkLoad)->Arg(1000)->Arg(5000);

void BM_PairStreamFirst(benchmark::State& state) {
  const auto& db = SynDb(2000);
  ptk::pbtree::PBTree::Options options;
  options.fanout = 8;
  const ptk::pbtree::PBTree tree(db, options);
  const ptk::pbtree::HEntropyScorer scorer(db);
  for (auto _ : state) {
    ptk::pbtree::PairStream stream(tree, scorer);
    benchmark::DoNotOptimize(stream.Next());
  }
}
BENCHMARK(BM_PairStreamFirst);

void BM_TopKEnumerate(benchmark::State& state) {
  const auto& db = SynDb(1000);
  const ptk::pw::TopKEnumerator enumerator(db);
  ptk::pw::EnumeratorOptions options;
  options.epsilon = 1e-9;
  const int k = static_cast<int>(state.range(0));
  for (auto _ : state) {
    ptk::pw::TopKDistribution dist;
    const auto s = enumerator.Enumerate(
        k, ptk::pw::OrderMode::kInsensitive, nullptr, options, &dist);
    if (!s.ok()) state.SkipWithError(s.ToString().c_str());
    benchmark::DoNotOptimize(dist.Entropy());
  }
}
BENCHMARK(BM_TopKEnumerate)->Arg(5)->Arg(10)->Arg(15);

// A pool per requested thread count, built once and reused so pool
// construction stays out of the timed region.
ptk::util::ParallelConfig ParallelFor(int threads) {
  static std::map<int, ptk::util::ThreadPool>* pools =
      new std::map<int, ptk::util::ThreadPool>();
  ptk::util::ParallelConfig config;
  config.threads = threads;
  config.pool = &pools->try_emplace(threads, threads).first->second;
  return config;
}

void BM_BruteForceSelect(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const auto& db = SynDb(m);
  ptk::core::SelectorOptions options;
  options.k = static_cast<int>(state.range(2));
  options.enumerator.epsilon = 1e-9;
  options.parallel = ParallelFor(static_cast<int>(state.range(1)));
  ptk::core::BruteForceSelector selector(db, options);
  for (auto _ : state) {
    std::vector<ptk::core::ScoredPair> out;
    const auto s = selector.SelectPairs(5, &out);
    if (!s.ok()) state.SkipWithError(s.ToString().c_str());
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_BruteForceSelect)
    ->ArgNames({"m", "threads", "k"})
    ->Args({24, 1, 3})
    ->Args({24, 2, 3})
    ->Args({24, 4, 3})
    ->Args({24, 8, 3});

void BM_BoundSelectorSelect(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const auto& db = SynDb(m);
  ptk::core::SelectorOptions options;
  options.k = static_cast<int>(state.range(1));
  options.fanout = 8;
  options.membership =
      std::make_shared<ptk::rank::MembershipCalculator>(db, options.k);
  for (auto _ : state) {
    ptk::core::BoundSelector selector(
        db, options, ptk::core::BoundSelector::Mode::kOptimized);
    std::vector<ptk::core::ScoredPair> out;
    const auto s = selector.SelectPairs(10, &out);
    if (!s.ok()) state.SkipWithError(s.ToString().c_str());
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_BoundSelectorSelect)->ArgNames({"m", "k"})->Args({2000, 10});

void BM_WorldSamplerEstimate(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const auto& db = SynDb(m);
  const ptk::pw::WorldSampler sampler(db);
  const auto parallel = ParallelFor(static_cast<int>(state.range(1)));
  const int k = static_cast<int>(state.range(2));
  for (auto _ : state) {
    ptk::pw::WorldSampler::Result result;
    const auto s =
        sampler.Estimate(k, ptk::pw::OrderMode::kInsensitive, nullptr,
                         20'000, 17, &result, parallel);
    if (!s.ok()) state.SkipWithError(s.ToString().c_str());
    benchmark::DoNotOptimize(result.accepted);
  }
}
BENCHMARK(BM_WorldSamplerEstimate)
    ->ArgNames({"m", "threads", "k"})
    ->Args({200, 1, 10})
    ->Args({200, 2, 10})
    ->Args({200, 4, 10})
    ->Args({200, 8, 10});

// A fixed batch of 64 pairs' tables, one ComputePairTables call each on
// the calling thread — how the selectors evaluate candidates.
void BM_PairTablesBatch(benchmark::State& state) {
  const auto& db = SynDb(2000);
  ptk::rank::MembershipCalculator calc(db, 10);
  std::vector<std::pair<ptk::model::ObjectId, ptk::model::ObjectId>> pairs;
  for (int i = 0; i < 64; ++i) {
    const ptk::model::ObjectId a = (i * 7) % db.num_objects();
    const ptk::model::ObjectId b = (a + 11) % db.num_objects();
    pairs.emplace_back(std::min(a, b), std::max(a, b));
  }
  for (auto _ : state) {
    for (const auto& [a, b] : pairs) {
      benchmark::DoNotOptimize(calc.ComputePairTables(a, b));
    }
  }
}
BENCHMARK(BM_PairTablesBatch);

// --------------------------------------------------------------------------
// simd kernel benchmarks (DESIGN.md §4.12): each runs once pinned to the
// scalar reference (level:0) and once at the widest available level
// (level:2, clamped to what the CPU offers), so the scalar-vs-simd speedup
// is a ratio of two adjacent rows in PTK_BENCH_JSON.

ptk::simd::Level BenchLevel(int64_t arg) {
  return arg == 0 ? ptk::simd::Level::kScalar : ptk::simd::Level::kAvx2;
}

struct BenchLevelGuard {
  explicit BenchLevelGuard(int64_t arg) {
    ptk::simd::SetLevelForTesting(BenchLevel(arg));
  }
  ~BenchLevelGuard() {
    ptk::simd::SetLevelForTesting(ptk::simd::Level::kAvx2);
  }
};

std::vector<double> BenchMasses(int n) {
  std::vector<double> v(n);
  for (int i = 0; i < n; ++i) v[i] = 0.001 + 0.998 * ((i * 2654435761u) % 997) / 997.0;
  return v;
}

void BM_KernelConvolve(benchmark::State& state) {
  BenchLevelGuard guard(state.range(0));
  const ptk::simd::KernelOps& ops = ptk::simd::Ops();
  std::vector<double> dp = BenchMasses(513);
  dp.back() = 0.0;
  for (auto _ : state) {
    ops.convolve_step(dp.data(), 512, 0.37);
    benchmark::DoNotOptimize(dp.data());
  }
}
BENCHMARK(BM_KernelConvolve)->ArgName("level")->Arg(0)->Arg(2);

void BM_KernelSum(benchmark::State& state) {
  BenchLevelGuard guard(state.range(0));
  const ptk::simd::KernelOps& ops = ptk::simd::Ops();
  const std::vector<double> v = BenchMasses(4096);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops.sum(v.data(), 4096));
  }
}
BENCHMARK(BM_KernelSum)->ArgName("level")->Arg(0)->Arg(2);

void BM_KernelEntropySum(benchmark::State& state) {
  BenchLevelGuard guard(state.range(0));
  const ptk::simd::KernelOps& ops = ptk::simd::Ops();
  const std::vector<double> v = BenchMasses(4096);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops.entropy_sum(v.data(), 4096));
  }
}
BENCHMARK(BM_KernelEntropySum)->ArgName("level")->Arg(0)->Arg(2);

// The sequential libm loop the entropy kernel replaces — the "seed
// baseline" row for BM_KernelEntropySum.
void BM_EntropySumLibm(benchmark::State& state) {
  const std::vector<double> v = BenchMasses(4096);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ptk::util::DistributionEntropy(v));
  }
}
BENCHMARK(BM_EntropySumLibm);

void BM_KernelSweepTransfer(benchmark::State& state) {
  BenchLevelGuard guard(state.range(0));
  const ptk::simd::KernelOps& ops = ptk::simd::Ops();
  const std::vector<double> joint = BenchMasses(4096);
  std::vector<double> mask(4096);
  for (int i = 0; i < 4096; ++i) mask[i] = (i % 2) ? 1.0 : 0.0;
  std::vector<double> weight = BenchMasses(4096);
  double t_true = 0.0, t_false = 0.0;
  for (auto _ : state) {
    ops.sweep_transfer(joint.data(), mask.data(), weight.data(), 4096,
                       1e-6, &t_true, &t_false);
    benchmark::DoNotOptimize(t_true);
    benchmark::DoNotOptimize(t_false);
  }
}
BENCHMARK(BM_KernelSweepTransfer)->ArgName("level")->Arg(0)->Arg(2);

// Streaming exclusion queries on a live tracker: the deconvolve DP path
// (copy-free since PR6; the forward direction is O(t) per query).
void BM_PBStreamingExclusion(benchmark::State& state) {
  ptk::rank::PoissonBinomialTracker tracker;
  const std::vector<double> qs = BenchMasses(256);
  for (double q : qs) tracker.Update(0.0, q);
  size_t i = 0;
  for (auto _ : state) {
    const double q1 = qs[i % qs.size()];
    const double q2 = qs[(i + 97) % qs.size()];
    benchmark::DoNotOptimize(tracker.CumulativeAtMostExcluding(20, q1));
    benchmark::DoNotOptimize(tracker.CumulativeAtMostExcluding2(20, q1, q2));
    ++i;
  }
}
BENCHMARK(BM_PBStreamingExclusion);

void BM_BoundObjectConstruction(benchmark::State& state) {
  const auto& db = SynDb(1000);
  std::vector<ptk::pbtree::BoundObject::Input> inputs;
  for (ptk::model::ObjectId o = 0; o < 8; ++o) {
    inputs.push_back({db.object(o).instances(), {}});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ptk::pbtree::BoundObject::LowerBound(inputs));
    benchmark::DoNotOptimize(ptk::pbtree::BoundObject::UpperBound(inputs));
  }
}
BENCHMARK(BM_BoundObjectConstruction);

// Extracts an "/name:123" argument from a benchmark's display name
// ("BM_X/m:24/threads:8"); returns fallback when absent.
int NameArg(const std::string& name, const std::string& key, int fallback) {
  const std::string tag = "/" + key + ":";
  const size_t at = name.find(tag);
  if (at == std::string::npos) return fallback;
  return std::atoi(name.c_str() + at + tag.size());
}

// Console output as usual, plus one JsonWriter record per run so
// PTK_BENCH_JSON captures the same numbers machine-readably.
class JsonTeeReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonTeeReporter(ptk::bench::JsonWriter* json) : json_(json) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred || run.iterations <= 0) continue;
      const std::string name = run.benchmark_name();
      json_->Record(
          name, run.real_accumulated_time / run.iterations,
          NameArg(name, "threads", ptk::bench::JsonWriter::DefaultThreads()),
          NameArg(name, "m", 0), NameArg(name, "k", 0));
    }
    benchmark::ConsoleReporter::ReportRuns(runs);
  }

 private:
  ptk::bench::JsonWriter* json_;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ptk::bench::JsonWriter json;
  JsonTeeReporter reporter(&json);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return 0;
}
