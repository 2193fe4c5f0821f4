// Property sweep for the ranking-objective layer: random answer
// sequences folded under each semantics, cross-checked three ways —
//
//   1. the engine's incrementally maintained uncertainty vs a fresh
//      objective instance rebuilt from scratch on the same context
//      (bitwise — the DESIGN.md §4.16 determinism contract),
//   2. a snapshot-restored twin engine (RestoreSnapshot with the live
//      engine's constraints and working marginals, the persist layer's
//      warm-restart path) reporting the same uncertainty bits,
//   3. both engines continuing to fold the same suffix of answers and
//      staying bitwise in agreement at every step — the kill/restart
//      replay scenario, minus the filesystem.
//
// A second sweep checks the shipped expected_rank and ukranks objectives
// against the dense implementations they replaced (semantics_reference.h)
// on the same contexts: random and value-tied catalogs, several k, folds
// that zero instances, and a restore in which every object holds an
// override.

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/selector.h"
#include "core/semantics.h"
#include "engine/ranking_engine.h"
#include "model/database.h"
#include "semantics_reference.h"
#include "test_util.h"
#include "util/rng.h"

namespace ptk {
namespace {

using core::SemanticsId;
using engine::RankingEngine;

struct SweepParam {
  SemanticsId semantics;
  uint64_t seed;
};

class SemanticsFoldSweep : public ::testing::TestWithParam<SweepParam> {};

std::vector<std::pair<model::ObjectId, model::ObjectId>> RandomAnswers(
    const model::Database& db, uint64_t seed, int count) {
  util::Rng rng(seed);
  std::vector<std::pair<model::ObjectId, model::ObjectId>> answers;
  answers.reserve(count);
  for (int i = 0; i < count; ++i) {
    const auto a =
        static_cast<model::ObjectId>(rng.UniformInt(0, db.num_objects() - 1));
    model::ObjectId b;
    do {
      b = static_cast<model::ObjectId>(
          rng.UniformInt(0, db.num_objects() - 1));
    } while (b == a);
    answers.emplace_back(a, b);
  }
  return answers;
}

double MustQuality(const RankingEngine& engine) {
  const util::StatusOr<double> q = engine.Quality();
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  return q.ok() ? *q : -1.0;
}

TEST_P(SemanticsFoldSweep, IncrementalRestoredAndReplayedAgreeBitwise) {
  const SweepParam param = GetParam();
  const model::Database db = testing::RandomDb(6, 3, param.seed);
  RankingEngine::Options options;
  options.k = 2;
  options.semantics = param.semantics;

  RankingEngine live(db, options);
  const auto answers = RandomAnswers(db, param.seed * 31 + 7, 14);
  const int prefix = 8;

  for (int i = 0; i < prefix; ++i) {
    RankingEngine::FoldOutcome outcome;
    ASSERT_TRUE(
        live.Fold(answers[i].first, answers[i].second, false, &outcome)
            .ok());
  }

  // 1. Scratch rebuild of the objective on the live context.
  const double incremental = MustQuality(live);
  {
    const std::unique_ptr<core::RankingSemantics> scratch =
        core::MakeSemantics(param.semantics);
    core::SemanticsContext ctx;
    ctx.base = &live.base_db();
    ctx.working = &live.working_db();
    ctx.k = options.k;
    ctx.order = options.order;
    if (param.semantics == SemanticsId::kEntropy) {
      const util::StatusOr<pw::TopKDistribution> dist = live.Distribution();
      ASSERT_TRUE(dist.ok());
      ctx.distribution = &*dist;
      // DOUBLE_EQ: the distribution copy may sum its entries in a
      // different unordered-map order than the engine's memoized original.
      EXPECT_DOUBLE_EQ(incremental, scratch->Uncertainty(ctx));
    } else {
      EXPECT_EQ(incremental, scratch->Uncertainty(ctx));
    }
  }

  // 2. Warm-restart twin: constraints + working marginals, verbatim.
  RankingEngine restored(db, options);
  std::vector<std::pair<model::ObjectId, model::ObjectId>> constraints;
  for (const auto& c : live.constraints().constraints()) {
    constraints.emplace_back(c.smaller, c.larger);
  }
  std::vector<RankingEngine::RestoredWeights> working;
  if (live.working_materialized()) {
    for (model::ObjectId oid = 0; oid < db.num_objects(); ++oid) {
      RankingEngine::RestoredWeights w;
      w.oid = oid;
      for (const auto& inst : live.working_db().object(oid).instances()) {
        w.probs.push_back(inst.prob);
      }
      working.push_back(std::move(w));
    }
  }
  const util::Status restore =
      restored.RestoreSnapshot(constraints, live.version(), working);
  ASSERT_TRUE(restore.ok()) << restore.ToString();
  EXPECT_EQ(MustQuality(restored), incremental)
      << "restored engine disagrees after warm restart";

  // 3. Replay the suffix through both engines in lockstep.
  for (size_t i = prefix; i < answers.size(); ++i) {
    RankingEngine::FoldOutcome live_outcome;
    RankingEngine::FoldOutcome restored_outcome;
    ASSERT_TRUE(
        live.Fold(answers[i].first, answers[i].second, false, &live_outcome)
            .ok());
    ASSERT_TRUE(restored
                    .Fold(answers[i].first, answers[i].second, false,
                          &restored_outcome)
                    .ok());
    ASSERT_EQ(live_outcome, restored_outcome) << "answer " << i;
    EXPECT_EQ(MustQuality(live), MustQuality(restored)) << "answer " << i;
  }
  EXPECT_EQ(live.version(), restored.version());
}

std::vector<SweepParam> AllParams() {
  std::vector<SweepParam> params;
  for (SemanticsId id : core::AllSemantics()) {
    for (uint64_t seed = 1; seed <= 8; ++seed) {
      params.push_back({id, seed});
    }
  }
  return params;
}

std::string ParamName(const ::testing::TestParamInfo<SweepParam>& info) {
  return std::string(core::SemanticsName(info.param.semantics)) + "_seed" +
         std::to_string(info.param.seed);
}

INSTANTIATE_TEST_SUITE_P(AllSemantics, SemanticsFoldSweep,
                         ::testing::ValuesIn(AllParams()), ParamName);

// ---------------------------------------------------------------------
// Shipped objectives vs the dense reference.

struct ReferenceParam {
  SemanticsId semantics;
  bool tied;  // testing::TiedDb values instead of testing::RandomDb
  int k;
  uint64_t seed;
};

class SemanticsReferenceSweep
    : public ::testing::TestWithParam<ReferenceParam> {};

core::SemanticsContext ContextOf(const RankingEngine& engine) {
  core::SemanticsContext ctx;
  ctx.base = &engine.base_db();
  ctx.working = &engine.working_db();
  ctx.k = engine.options().k;
  ctx.order = engine.options().order;
  return ctx;
}

// Required agreement on one context: ukranks bitwise; expected_rank
// Uncertainty within 1e-12 relative and PairImprovement within 1e-12 x
// Uncertainty absolute. Fresh instances on both sides, so nothing memoized
// from an earlier context leaks in. Returns the reference uncertainty.
double ExpectAgreement(SemanticsId id, const core::SemanticsContext& ctx,
                       double engine_quality, const std::string& where) {
  const std::unique_ptr<core::RankingSemantics> shipped =
      core::MakeSemantics(id);
  const std::unique_ptr<core::RankingSemantics> reference =
      testing::reference::MakeReferenceSemantics(id);
  const double u_ref = reference->Uncertainty(ctx);
  const double u = shipped->Uncertainty(ctx);
  EXPECT_EQ(u, engine_quality) << where;
  const int m = ctx.base->num_objects();
  if (id == SemanticsId::kUKRanks) {
    EXPECT_EQ(u, u_ref) << where;
    const auto answer = shipped->PointAnswer(ctx);
    const auto answer_ref = reference->PointAnswer(ctx);
    EXPECT_TRUE(answer.ok() && answer_ref.ok()) << where;
    if (answer.ok() && answer_ref.ok()) {
      EXPECT_EQ(answer->size(), answer_ref->size()) << where;
      for (size_t r = 0; r < std::min(answer->size(), answer_ref->size());
           ++r) {
        EXPECT_EQ((*answer)[r].oid, (*answer_ref)[r].oid) << where;
        EXPECT_EQ((*answer)[r].score, (*answer_ref)[r].score) << where;
      }
    }
  } else {
    EXPECT_LE(std::abs(u - u_ref), 1e-12 * u_ref) << where;
  }
  for (model::ObjectId a = 0; a < m; ++a) {
    for (model::ObjectId b = 0; b < m; ++b) {
      if (a == b) continue;
      const util::StatusOr<double> score = shipped->PairImprovement(ctx, a, b);
      const util::StatusOr<double> score_ref =
          reference->PairImprovement(ctx, a, b);
      EXPECT_TRUE(score.ok() && score_ref.ok()) << where;
      if (!score.ok() || !score_ref.ok()) continue;
      if (id == SemanticsId::kUKRanks) {
        EXPECT_EQ(*score, *score_ref) << where << " pair " << a << "," << b;
      } else {
        EXPECT_LE(std::abs(*score - *score_ref), 1e-12 * u_ref)
            << where << " pair " << a << "," << b;
      }
    }
  }
  return u_ref;
}

// The engine's rescored top t against the same selection run through the
// reference objective over the same inner candidates: any pick that
// differs must be a reference tie with the t-th score (1e-12 relative).
void ExpectSamePicks(SemanticsId id, RankingEngine& engine, int t,
                     const std::string& where) {
  std::vector<core::ScoredPair> picks;
  ASSERT_TRUE(engine.MakeSelector(core::SelectorKind::kOpt)
                  ->SelectPairs(t, &picks)
                  .ok());
  core::SelectorOptions options;
  options.k = engine.options().k;
  options.order = engine.options().order;
  options.fanout = engine.options().fanout;
  options.seed = engine.options().seed;
  options.candidate_pool = engine.options().candidate_pool;
  options.membership = engine.membership();
  options.shared_tree = &engine.tree();
  const std::unique_ptr<core::RankingSemantics> reference =
      testing::reference::MakeReferenceSemantics(id);
  core::RescoredSelector reference_selector(
      core::MakeSelector(engine.working_db(), core::SelectorKind::kOpt,
                         options),
      reference.get(), ContextOf(engine), options.candidate_pool);
  std::vector<core::ScoredPair> reference_picks;
  ASSERT_TRUE(reference_selector.SelectPairs(t, &reference_picks).ok());
  ASSERT_EQ(picks.size(), reference_picks.size()) << where;
  if (picks.empty()) return;
  const double tth = reference_picks.back().ei_estimate;
  const auto key = [](const core::ScoredPair& p) {
    return std::make_pair(p.a, p.b);
  };
  std::set<std::pair<model::ObjectId, model::ObjectId>> shipped_set,
      reference_set;
  for (const core::ScoredPair& p : picks) shipped_set.insert(key(p));
  for (const core::ScoredPair& p : reference_picks) {
    reference_set.insert(key(p));
  }
  const auto expect_tie = [&](const core::ScoredPair& p) {
    const util::StatusOr<double> score =
        reference->PairImprovement(ContextOf(engine), p.a, p.b);
    ASSERT_TRUE(score.ok());
    EXPECT_LE(std::abs(*score - tth), 1e-12 * std::abs(tth))
        << where << " pick (" << p.a << "," << p.b << ") is no tie of the "
        << t << "-th reference score " << tth;
  };
  for (const core::ScoredPair& p : picks) {
    if (!reference_set.contains(key(p))) expect_tie(p);
  }
  for (const core::ScoredPair& p : reference_picks) {
    if (!shipped_set.contains(key(p))) expect_tie(p);
  }
  if (id == SemanticsId::kUKRanks) {
    for (size_t i = 0; i < picks.size(); ++i) {
      EXPECT_EQ(key(picks[i]), key(reference_picks[i])) << where;
      EXPECT_EQ(picks[i].ei_estimate, reference_picks[i].ei_estimate)
          << where;
    }
  }
}

// Folds the first answer, in id order, whose marginal reweight zeroes an
// instance that had mass; false when no such answer applies.
bool FoldZeroingAnswer(RankingEngine& engine) {
  const model::Database& working = engine.working_db();
  for (model::ObjectId s = 0; s < working.num_objects(); ++s) {
    for (model::ObjectId l = 0; l < working.num_objects(); ++l) {
      if (s == l) continue;
      const model::UncertainObject& so = working.object(s);
      const model::UncertainObject& lo = working.object(l);
      bool zeroes = false;
      double mass_s = 0.0, mass_l = 0.0;
      for (const model::Instance& inst : so.instances()) {
        const double p = inst.prob * lo.MassGreater(inst);
        zeroes |= inst.prob > 0.0 && p == 0.0;
        mass_s += p;
      }
      for (const model::Instance& inst : lo.instances()) {
        const double p = inst.prob * so.MassLess(inst);
        zeroes |= inst.prob > 0.0 && p == 0.0;
        mass_l += p;
      }
      if (!zeroes || mass_s <= 0.0 || mass_l <= 0.0) continue;
      RankingEngine::FoldOutcome outcome;
      if (!engine.Fold(s, l, false, &outcome).ok()) return false;
      if (outcome == RankingEngine::FoldOutcome::kApplied) return true;
    }
  }
  return false;
}

TEST_P(SemanticsReferenceSweep, ShippedObjectiveMatchesDenseReference) {
  const ReferenceParam param = GetParam();
  const model::Database db = param.tied
                                 ? testing::TiedDb(9, param.seed)
                                 : testing::RandomDb(9, 8, param.seed);
  RankingEngine::Options options;
  options.k = param.k;
  options.semantics = param.semantics;
  RankingEngine live(db, options);
  ExpectAgreement(param.semantics, ContextOf(live), MustQuality(live),
                  "prior");

  ASSERT_TRUE(FoldZeroingAnswer(live));
  ExpectAgreement(param.semantics, ContextOf(live), MustQuality(live),
                  "zeroing answer");
  const auto answers = RandomAnswers(db, param.seed * 131 + 17, 10);
  for (size_t i = 0; i < answers.size(); ++i) {
    RankingEngine::FoldOutcome outcome;
    ASSERT_TRUE(
        live.Fold(answers[i].first, answers[i].second, false, &outcome)
            .ok());
    const std::string where = "answer " + std::to_string(i);
    ExpectAgreement(param.semantics, ContextOf(live), MustQuality(live),
                    where);
    ExpectSamePicks(param.semantics, live, 3, where);
  }

  // Every object holds an override, most of them equal to the base.
  RankingEngine restored(db, options);
  std::vector<std::pair<model::ObjectId, model::ObjectId>> constraints;
  for (const auto& c : live.constraints().constraints()) {
    constraints.emplace_back(c.smaller, c.larger);
  }
  std::vector<RankingEngine::RestoredWeights> working;
  for (model::ObjectId oid = 0; oid < db.num_objects(); ++oid) {
    RankingEngine::RestoredWeights w;
    w.oid = oid;
    for (const auto& inst : live.working_db().object(oid).instances()) {
      w.probs.push_back(inst.prob);
    }
    working.push_back(std::move(w));
  }
  ASSERT_TRUE(
      restored.RestoreSnapshot(constraints, live.version(), working).ok());
  ASSERT_EQ(restored.working_db().OverriddenObjects().size(),
            static_cast<size_t>(db.num_objects()));
  EXPECT_EQ(MustQuality(restored), MustQuality(live));
  ExpectAgreement(param.semantics, ContextOf(restored), MustQuality(restored),
                  "restored");
  ExpectSamePicks(param.semantics, restored, 3, "restored");
}

// A context whose working database is a separate database with the
// base's values rather than a delta over the base: every object is
// compared against the base, and the results still match the reference.
TEST(SemanticsReference, SeparateWorkingDatabaseMatchesDenseReference) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    const model::Database base = testing::RandomDb(9, 8, seed);
    model::Database working;
    for (model::ObjectId oid = 0; oid < base.num_objects(); ++oid) {
      // Every third object shifts its mass toward its larger values.
      std::vector<std::pair<double, double>> pairs;
      double total = 0.0;
      for (const model::Instance& inst : base.object(oid).instances()) {
        pairs.emplace_back(inst.value,
                           inst.prob * (oid % 3 == 0 ? inst.iid + 1 : 1));
        total += pairs.back().second;
      }
      for (auto& pair : pairs) pair.second /= total;
      working.AddObject(std::move(pairs));
    }
    ASSERT_TRUE(working.Finalize().ok());
    core::SemanticsContext ctx;
    ctx.base = &base;
    ctx.working = &working;
    ctx.k = 2;
    const double quality = core::MakeSemantics(SemanticsId::kExpectedRank)
                               ->Uncertainty(ctx);
    ExpectAgreement(SemanticsId::kExpectedRank, ctx, quality,
                    "seed " + std::to_string(seed));
  }
}

std::vector<ReferenceParam> ReferenceParams() {
  std::vector<ReferenceParam> params;
  for (SemanticsId id : {SemanticsId::kExpectedRank, SemanticsId::kUKRanks}) {
    for (bool tied : {false, true}) {
      for (int k : {1, 2, 5}) {
        for (uint64_t seed = 1; seed <= 4; ++seed) {
          params.push_back({id, tied, k, seed});
        }
      }
    }
  }
  return params;
}

std::string ReferenceParamName(
    const ::testing::TestParamInfo<ReferenceParam>& info) {
  return std::string(core::SemanticsName(info.param.semantics)) +
         (info.param.tied ? "_tied" : "_random") + "_k" +
         std::to_string(info.param.k) + "_seed" +
         std::to_string(info.param.seed);
}

INSTANTIATE_TEST_SUITE_P(ReferenceOracle, SemanticsReferenceSweep,
                         ::testing::ValuesIn(ReferenceParams()),
                         ReferenceParamName);

}  // namespace
}  // namespace ptk
