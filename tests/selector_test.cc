#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <utility>

#include "core/bound_selector.h"
#include "core/brute_force_selector.h"
#include "core/ei_estimator.h"
#include "core/quality.h"
#include "core/random_selector.h"
#include "data/synthetic.h"
#include "engine/ranking_engine.h"
#include "test_util.h"

namespace ptk {
namespace {

core::SelectorOptions SmallOptions(int k) {
  core::SelectorOptions opts;
  opts.k = k;
  opts.fanout = 3;
  return opts;
}

class SelectorSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SelectorSweep, BoundSelectorsNearOptimal) {
  // PBTREE and OPT use the Δ-interval midpoint, so their chosen pair may
  // differ from BF's when estimates are close; their pair's *exact* EI must
  // still be within the interval slack of the optimum.
  const model::Database db = testing::RandomDb(8, 3, GetParam());
  const core::SelectorOptions opts = SmallOptions(3);
  const core::QualityEvaluator evaluator(db, opts.k,
                                         pw::OrderMode::kInsensitive);

  core::BruteForceSelector bf(db, opts);
  std::vector<core::ScoredPair> best_bf;
  ASSERT_TRUE(bf.SelectPairs(1, &best_bf).ok());
  ASSERT_EQ(best_bf.size(), 1u);
  const double optimum = best_bf[0].ei_estimate;

  for (const auto mode : {core::BoundSelector::Mode::kBasic,
                          core::BoundSelector::Mode::kOptimized}) {
    core::BoundSelector selector(db, opts, mode);
    std::vector<core::ScoredPair> best;
    ASSERT_TRUE(selector.SelectPairs(1, &best).ok());
    ASSERT_EQ(best.size(), 1u);
    double exact = 0.0;
    ASSERT_TRUE(evaluator
                    .ExactExpectedImprovement(best[0].a, best[0].b, nullptr,
                                              &exact)
                    .ok());
    // Midpoint estimates can swap two pairs whose EI intervals overlap, so
    // the allowed regret is the sum of both pairs' interval widths.
    const core::EIEstimate best_est =
        selector.estimator().Estimate(best_bf[0].a, best_bf[0].b);
    const double slack = 1e-6 +
                         (best[0].ei_upper - best[0].ei_lower) +
                         (best_est.upper() - best_est.lower());
    EXPECT_GE(exact, optimum - slack)
        << selector.name() << " picked (" << best[0].a << "," << best[0].b
        << ") ei=" << exact << " optimum=" << optimum << " seed "
        << GetParam();
  }
}

TEST_P(SelectorSweep, BasicAndOptimizedAgree) {
  const model::Database db = testing::RandomDb(12, 3, GetParam() + 400);
  const core::SelectorOptions opts = SmallOptions(4);
  core::BoundSelector basic(db, opts, core::BoundSelector::Mode::kBasic);
  core::BoundSelector optimized(db, opts,
                                core::BoundSelector::Mode::kOptimized);
  std::vector<core::ScoredPair> from_basic, from_optimized;
  ASSERT_TRUE(basic.SelectPairs(1, &from_basic).ok());
  ASSERT_TRUE(optimized.SelectPairs(1, &from_optimized).ok());
  ASSERT_EQ(from_basic.size(), 1u);
  ASSERT_EQ(from_optimized.size(), 1u);
  // Same estimate (both use the same estimator); the concrete pair can
  // only differ among exact ties.
  EXPECT_NEAR(from_basic[0].ei_estimate, from_optimized[0].ei_estimate,
              1e-6);
  // OPT's tighter node bound should never evaluate more pairs.
  EXPECT_LE(optimized.stats().pairs_evaluated + 2,
            basic.stats().pairs_evaluated + 2);
}

INSTANTIATE_TEST_SUITE_P(RandomDatabases, SelectorSweep,
                         ::testing::Range(uint64_t{0}, uint64_t{8}));

// Selection order: descending estimate, equal estimates by ascending
// (a, b).
bool RanksBefore(const core::ScoredPair& x, const core::ScoredPair& y) {
  if (x.ei_estimate != y.ei_estimate) return x.ei_estimate > y.ei_estimate;
  return std::pair(x.a, x.b) < std::pair(y.a, y.b);
}

TEST(BoundSelector, TopTSelection) {
  struct Input {
    uint64_t seed;
    int m, k, t;
  };
  // Seed 999 has three picks with bitwise-equal estimates; their order
  // must not depend on the heap's history.
  for (const Input& in : {Input{77, 12, 3, 5}, Input{999, 14, 4, 3}}) {
    const model::Database db = testing::RandomDb(in.m, 3, in.seed);
    const core::SelectorOptions opts = SmallOptions(in.k);
    for (const auto mode : {core::BoundSelector::Mode::kOptimized,
                            core::BoundSelector::Mode::kBasic}) {
      core::BoundSelector selector(db, opts, mode);
      std::vector<core::ScoredPair> top;
      ASSERT_TRUE(selector.SelectPairs(in.t, &top).ok());
      ASSERT_EQ(top.size(), static_cast<size_t>(in.t));
      for (size_t i = 1; i < top.size(); ++i) {
        EXPECT_TRUE(RanksBefore(top[i - 1], top[i]))
            << selector.name() << " seed " << in.seed << " rank " << i;
      }
      std::set<std::pair<model::ObjectId, model::ObjectId>> unique;
      for (const auto& p : top) {
        EXPECT_NE(p.a, p.b);
        unique.insert(std::minmax(p.a, p.b));
      }
      EXPECT_EQ(unique.size(), static_cast<size_t>(in.t));
    }
  }
}

// The best t pairs of db by an exhaustive EIEstimator scan.
std::vector<core::ScoredPair> ExhaustiveTop(
    const model::Database& db, const rank::MembershipCalculator& membership,
    int t) {
  const core::EIEstimator estimator(db, membership,
                                    pw::OrderMode::kInsensitive);
  std::vector<core::ScoredPair> all;
  for (model::ObjectId a = 0; a < db.num_objects(); ++a) {
    for (model::ObjectId b = a + 1; b < db.num_objects(); ++b) {
      const core::EIEstimate est = estimator.Estimate(a, b);
      all.push_back({a, b, est.estimate(), est.lower(), est.upper()});
    }
  }
  std::partial_sort(all.begin(), all.begin() + t, all.end(), RanksBefore);
  all.resize(t);
  return all;
}

// Same estimates, and the same pairs wherever the estimate is above the
// cut (equal estimates at the cut may resolve to different pairs). The
// scan evaluates every pair as (a < b) while the stream may emit (b, a);
// the Δ sweep's summation order follows the orientation, so estimates
// agree to rounding, not bitwise.
void ExpectSameTop(const std::vector<core::ScoredPair>& selected,
                   const std::vector<core::ScoredPair>& exhaustive) {
  constexpr double kRounding = 1e-12;
  ASSERT_EQ(selected.size(), exhaustive.size());
  const double cut = exhaustive.back().ei_estimate;
  std::set<std::pair<model::ObjectId, model::ObjectId>> want, got;
  for (size_t i = 0; i < selected.size(); ++i) {
    EXPECT_NEAR(selected[i].ei_estimate, exhaustive[i].ei_estimate,
                kRounding)
        << "rank " << i;
    if (exhaustive[i].ei_estimate > cut + kRounding) {
      want.insert(std::minmax(exhaustive[i].a, exhaustive[i].b));
      got.insert(std::minmax(selected[i].a, selected[i].b));
    }
  }
  EXPECT_EQ(got, want);
}

TEST(BoundSelector, OptCostFollowsTheContestedHead) {
  // A SYN catalog much longer than its contested head: OPT must evaluate
  // a few dozen pairs, not a share of the catalog, and still find what an
  // exhaustive scan finds — on the base artifacts and, after a round of
  // working folds, on the session's DeltaTree and delta membership.
  data::SynOptions syn;
  syn.num_objects = 1000;
  syn.avg_instances = 3;
  syn.value_range = 2500.0;
  syn.cluster_width = 50.0;
  syn.seed = 6;
  const model::Database db = data::MakeSynDataset(syn);
  engine::RankingEngine::Options options;
  options.k = 5;
  engine::RankingEngine engine(db, options);
  constexpr int kPairs = 4;

  for (int round = 0; round < 2; ++round) {
    SCOPED_TRACE(round);
    const std::unique_ptr<core::PairSelector> selector =
        engine.MakeSelector(core::SelectorKind::kOpt);
    const auto* opt = dynamic_cast<const core::BoundSelector*>(selector.get());
    ASSERT_NE(opt, nullptr);
    std::vector<core::ScoredPair> picks;
    ASSERT_TRUE(selector->SelectPairs(kPairs, &picks).ok());
    EXPECT_LE(opt->stats().pairs_evaluated, 100);
    ExpectSameTop(picks, ExhaustiveTop(engine.working_db(),
                                       *engine.membership(), kPairs));
    if (round == 1) break;
    // Answer every pick as the world where each object takes its first
    // instance would, so the answers never contradict each other.
    for (const core::ScoredPair& ask : picks) {
      const bool a_first =
          db.PositionOf({ask.a, 0}) < db.PositionOf({ask.b, 0});
      engine::RankingEngine::FoldOutcome outcome;
      ASSERT_TRUE(engine
                      .Fold(a_first ? ask.a : ask.b, a_first ? ask.b : ask.a,
                            /*update_working=*/true, &outcome)
                      .ok());
      ASSERT_EQ(outcome, engine::RankingEngine::FoldOutcome::kApplied);
    }
  }
}

TEST(BoundSelector, PruningActuallyPrunes) {
  const model::Database db = testing::RandomDb(60, 3, 5);
  core::SelectorOptions opts = SmallOptions(5);
  opts.fanout = 8;
  core::BoundSelector selector(db, opts,
                               core::BoundSelector::Mode::kOptimized);
  std::vector<core::ScoredPair> best;
  ASSERT_TRUE(selector.SelectPairs(1, &best).ok());
  const int64_t all_pairs = 60 * 59 / 2;
  EXPECT_LT(selector.stats().stream.object_pairs_scored, all_pairs)
      << "index should not score the full quadratic pair space";
}

TEST(RandomSelector, DeterministicAndDistinct) {
  const model::Database db = testing::RandomDb(20, 3, 9);
  const core::SelectorOptions opts = SmallOptions(3);
  core::RandomSelector a(db, opts, core::RandomSelector::Mode::kUniform);
  core::RandomSelector b(db, opts, core::RandomSelector::Mode::kUniform);
  std::vector<core::ScoredPair> pa, pb;
  ASSERT_TRUE(a.SelectPairs(10, &pa).ok());
  ASSERT_TRUE(b.SelectPairs(10, &pb).ok());
  ASSERT_EQ(pa.size(), 10u);
  for (size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(pa[i].a, pb[i].a);
    EXPECT_EQ(pa[i].b, pb[i].b);
  }
}

TEST(RandomSelector, TopFractionRestrictsPool) {
  const model::Database db = testing::RandomDb(30, 3, 10);
  core::SelectorOptions opts = SmallOptions(3);
  opts.rand_k_fraction = 0.2;  // 6 objects
  core::RandomSelector selector(db, opts,
                                core::RandomSelector::Mode::kTopFraction);
  std::vector<core::ScoredPair> pairs;
  ASSERT_TRUE(selector.SelectPairs(15, &pairs).ok());  // all C(6,2) pairs
  ASSERT_EQ(pairs.size(), 15u);
  rank::MembershipCalculator membership(db, opts.k);
  // Every drawn object must be in the top 20% by membership probability.
  std::vector<double> scores;
  for (const auto& obj : db.objects()) {
    scores.push_back(membership.ObjectTopKProbability(obj.id()));
  }
  std::vector<double> sorted_scores = scores;
  std::sort(sorted_scores.rbegin(), sorted_scores.rend());
  const double cutoff = sorted_scores[5];
  for (const auto& p : pairs) {
    EXPECT_GE(scores[p.a], cutoff - 1e-9);
    EXPECT_GE(scores[p.b], cutoff - 1e-9);
  }
}

TEST(RandomSelector, RejectsOversizedQuota) {
  const model::Database db = testing::RandomDb(4, 3, 11);
  const core::SelectorOptions opts = SmallOptions(2);
  core::RandomSelector selector(db, opts,
                                core::RandomSelector::Mode::kUniform);
  std::vector<core::ScoredPair> pairs;
  EXPECT_FALSE(selector.SelectPairs(7, &pairs).ok());  // C(4,2) = 6 < 7
}

}  // namespace
}  // namespace ptk
