// Pins the RankingEngine contract: every engine-served artifact —
// membership, PB-tree bounds, selector output, conditioned distribution,
// quality — matches recomputing the same quantity from scratch, at every
// step of random constraint-fold sequences. Also pins the satellite fixes:
// version-aware SelectorOptions::MembershipFor and the memoized
// distribution path.

#include "engine/ranking_engine.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/bound_selector.h"
#include "core/quality.h"
#include "core/selector.h"
#include "crowd/adaptive.h"
#include "crowd/crowd_model.h"
#include "crowd/session.h"
#include "data/synthetic.h"
#include "model/database_overlay.h"
#include "obs/metrics.h"
#include "pbtree/bound_object.h"
#include "pbtree/delta_tree.h"
#include "pbtree/pbtree.h"
#include "rank/membership.h"
#include "util/epoch.h"
#include "test_util.h"
#include "util/rng.h"

namespace ptk {
namespace {

constexpr double kTol = 1e-12;

// Rebuilds a fresh, independently finalized database carrying the working
// database's current marginals, dropping zero-probability instances the
// way a from-scratch construction would. This is the reference the
// engine's incrementally maintained state must match.
model::Database ScratchRebuild(const model::Database& working) {
  model::Database out;
  for (const auto& obj : working.objects()) {
    std::vector<std::pair<double, double>> pairs;
    for (const auto& inst : obj.instances()) {
      if (inst.prob > 0.0) pairs.emplace_back(inst.value, inst.prob);
    }
    out.AddObject(std::move(pairs), obj.label());
  }
  const util::Status s = out.Finalize();
  EXPECT_TRUE(s.ok()) << s.ToString();
  return out;
}

// Per-instance membership comparison, aligning the working database's
// nonzero-probability instances with the scratch database's (zero-prob
// instances keep their slot in the overlay but vanish from a rebuild).
void ExpectMembershipMatches(const rank::MembershipCalculator& incremental,
                             const rank::MembershipCalculator& scratch,
                             const model::Database& working,
                             const model::Database& rebuilt) {
  for (model::ObjectId oid = 0; oid < working.num_objects(); ++oid) {
    EXPECT_NEAR(incremental.ObjectTopKProbability(oid),
                scratch.ObjectTopKProbability(oid), kTol)
        << "object " << oid;
    model::InstanceId scratch_iid = 0;
    for (const auto& inst : working.object(oid).instances()) {
      if (inst.prob <= 0.0) {
        // Zero-mass instances must be exact no-ops.
        EXPECT_EQ(incremental.TopKProbability({oid, inst.iid}), 0.0);
        continue;
      }
      ASSERT_LT(scratch_iid, rebuilt.object(oid).num_instances());
      EXPECT_NEAR(incremental.TopKProbability({oid, inst.iid}),
                  scratch.TopKProbability({oid, scratch_iid}), kTol)
          << "object " << oid << " instance " << inst.iid;
      ++scratch_iid;
    }
    EXPECT_EQ(scratch_iid, rebuilt.object(oid).num_instances());
  }
}

void ExpectDistributionMatches(const pw::TopKDistribution& a,
                               const pw::TopKDistribution& b) {
  EXPECT_NEAR(a.Entropy(), b.Entropy(), kTol);
  for (const auto& [key, p] : a.SortedByProbDesc()) {
    EXPECT_NEAR(p, b.ProbOf(key), kTol);
  }
}

std::vector<double> SelectedEis(const std::vector<core::ScoredPair>& pairs) {
  std::vector<double> eis;
  eis.reserve(pairs.size());
  for (const auto& p : pairs) eis.push_back(p.ei_estimate);
  return eis;
}

// Runs one engine selector and its from-scratch twin and compares. The
// scratch twin rebuilds everything: database, membership, PB-tree.
void ExpectSelectorMatches(engine::RankingEngine& eng,
                           core::SelectorKind kind,
                           const model::Database& rebuilt, int t) {
  std::unique_ptr<core::PairSelector> incremental = eng.MakeSelector(kind);
  std::vector<core::ScoredPair> inc_pairs;
  util::Status s = incremental->SelectPairs(t, &inc_pairs);
  ASSERT_TRUE(s.ok()) << SelectorKindName(kind) << ": " << s.ToString();

  core::SelectorOptions options;
  options.k = eng.options().k;
  options.order = eng.options().order;
  options.enumerator = eng.options().enumerator;
  options.fanout = eng.options().fanout;
  options.seed = eng.options().seed;
  options.rand_k_fraction = eng.options().rand_k_fraction;
  options.candidate_pool = eng.options().candidate_pool;
  std::unique_ptr<core::PairSelector> scratch =
      core::MakeSelector(rebuilt, kind, options);
  std::vector<core::ScoredPair> scr_pairs;
  s = scratch->SelectPairs(t, &scr_pairs);
  ASSERT_TRUE(s.ok()) << SelectorKindName(kind) << ": " << s.ToString();

  ASSERT_EQ(inc_pairs.size(), scr_pairs.size()) << SelectorKindName(kind);
  // A from-scratch Finalize() renormalizes every marginal by a sum that is
  // 1.0 only to within one ulp, so rebuilt quantities can differ from the
  // engine's at ~1e-16 — enough to flip orderings at *exact* score ties.
  // The equivalence claim is therefore value equality (and, where scores
  // cannot tie, pair identity), not blanket pair identity.
  switch (kind) {
    case core::SelectorKind::kBruteForce: {
      // Equal exact-EI sequences, and each engine-selected pair's EI must
      // reproduce on the rebuilt database.
      const core::QualityEvaluator scratch_eval(rebuilt, options.k,
                                                options.order,
                                                options.enumerator);
      const std::vector<double> inc_eis = SelectedEis(inc_pairs);
      const std::vector<double> scr_eis = SelectedEis(scr_pairs);
      for (size_t i = 0; i < inc_eis.size(); ++i) {
        EXPECT_NEAR(inc_eis[i], scr_eis[i], 1e-9) << "BF pair " << i;
        double ei = 0.0;
        const util::Status es = scratch_eval.ExactExpectedImprovement(
            inc_pairs[i].a, inc_pairs[i].b, nullptr, &ei);
        ASSERT_TRUE(es.ok()) << es.ToString();
        EXPECT_NEAR(inc_pairs[i].ei_estimate, ei, 1e-9) << "BF pair " << i;
      }
      break;
    }
    case core::SelectorKind::kRand:
      // Pure seeded oid sampling — bit-identical pairs.
      for (size_t i = 0; i < inc_pairs.size(); ++i) {
        EXPECT_EQ(inc_pairs[i].a, scr_pairs[i].a) << "RAND pair " << i;
        EXPECT_EQ(inc_pairs[i].b, scr_pairs[i].b) << "RAND pair " << i;
      }
      break;
    case core::SelectorKind::kRandK: {
      // The pool ranks objects by membership; near-ties may reorder it, so
      // pin the semantics instead: every selected object's rebuilt-side
      // membership must clear the rebuilt pool threshold (within the
      // renormalization noise).
      const rank::MembershipCalculator scratch_membership(rebuilt,
                                                          options.k);
      const int m = rebuilt.num_objects();
      std::vector<double> scores(m);
      for (model::ObjectId o = 0; o < m; ++o) {
        scores[o] = scratch_membership.ObjectTopKProbability(o);
      }
      std::vector<double> sorted = scores;
      std::sort(sorted.begin(), sorted.end(), std::greater<>());
      const int keep = std::min<int>(
          m, std::max(2, static_cast<int>(m * options.rand_k_fraction)));
      const double threshold = sorted[keep - 1];
      for (size_t i = 0; i < inc_pairs.size(); ++i) {
        EXPECT_GE(scores[inc_pairs[i].a], threshold - 1e-9)
            << "RAND_K pair " << i;
        EXPECT_GE(scores[inc_pairs[i].b], threshold - 1e-9)
            << "RAND_K pair " << i;
      }
      break;
    }
    default: {
      // Tree-based kinds: the engine's tree is maintained in place, so its
      // node packing can drift from a fresh bulk load; Algorithm 1 is
      // exact either way, so the selected EI sequence must agree (pair
      // identity may differ only on exact EI ties).
      const std::vector<double> inc_eis = SelectedEis(inc_pairs);
      const std::vector<double> scr_eis = SelectedEis(scr_pairs);
      for (size_t i = 0; i < inc_eis.size(); ++i) {
        EXPECT_NEAR(inc_eis[i], scr_eis[i], 1e-9)
            << SelectorKindName(kind) << " pair " << i;
      }
      break;
    }
  }
}

// The tentpole pin: >= 100 random constraint-fold sequences; after every
// applied fold the engine's incrementally maintained state must match a
// from-scratch recompute, and at the end of each sequence all seven
// selector kinds must agree with their from-scratch twins.
TEST(EngineEquivalence, RandomFoldSequencesMatchScratchRecompute) {
  constexpr int kSequences = 104;
  constexpr int kFoldAttempts = 4;
  for (int seq = 0; seq < kSequences; ++seq) {
    const uint64_t seed = 1000 + static_cast<uint64_t>(seq);
    const int m = 5 + seq % 3;
    const model::Database base = testing::RandomDb(m, 3, seed);
    engine::RankingEngine::Options options;
    options.k = 2 + seq % 2;
    options.fanout = 2 + seq % 3;
    options.seed = seed;
    options.rand_k_fraction = 0.6;  // keep the RAND_K pool non-degenerate
    engine::RankingEngine eng(base, options);

    // Answers come from one sampled world (jointly consistent), flipped
    // with probability 0.3 so the contradiction/degenerate paths fire too.
    const std::vector<double> truth =
        crowd::SampleWorldValues(base, seed * 31 + 7);
    util::Rng rng(seed * 17 + 3);

    for (int attempt = 0; attempt < kFoldAttempts; ++attempt) {
      const model::ObjectId a =
          static_cast<model::ObjectId>(rng.UniformInt(0, m - 1));
      model::ObjectId b = a;
      while (b == a) {
        b = static_cast<model::ObjectId>(rng.UniformInt(0, m - 1));
      }
      model::ObjectId smaller = truth[a] < truth[b] ? a : b;
      model::ObjectId larger = smaller == a ? b : a;
      if (rng.Bernoulli(0.3)) std::swap(smaller, larger);

      engine::RankingEngine::FoldOutcome outcome;
      const util::Status s =
          eng.Fold(smaller, larger, /*update_working=*/true, &outcome);
      ASSERT_TRUE(s.ok()) << s.ToString();
      if (outcome != engine::RankingEngine::FoldOutcome::kApplied) continue;

      const model::Database rebuilt = ScratchRebuild(eng.working_db());

      // Membership: per-object refresh vs full rebuild.
      const rank::MembershipCalculator scratch_membership(rebuilt,
                                                          options.k);
      ExpectMembershipMatches(*eng.membership(), scratch_membership,
                              eng.working_db(), rebuilt);

      // Exact conditioning: memoized distribution and quality vs a fresh
      // evaluator over the same base database and constraints.
      const core::QualityEvaluator scratch_eval(base, options.k,
                                                options.order);
      const util::StatusOr<pw::TopKDistribution> engine_dist =
          eng.Distribution();
      ASSERT_TRUE(engine_dist.ok());
      pw::TopKDistribution scratch_dist;
      ASSERT_TRUE(
          scratch_eval.Distribution(&eng.constraints(), &scratch_dist).ok());
      ExpectDistributionMatches(*engine_dist, scratch_dist);
      const util::StatusOr<double> engine_h = eng.Quality();
      ASSERT_TRUE(engine_h.ok());
      double scratch_h = 0.0;
      ASSERT_TRUE(
          scratch_eval.Quality(&eng.constraints(), &scratch_h).ok());
      EXPECT_NEAR(*engine_h, scratch_h, kTol);
    }

    const model::Database rebuilt = ScratchRebuild(eng.working_db());
    for (core::SelectorKind kind : core::AllSelectorKinds()) {
      ExpectSelectorMatches(eng, kind, rebuilt, /*t=*/2);
    }
  }
}

// Copy-on-write PB-tree maintenance: after a sequence of delta reweights
// with path-local DeltaTree updates, recomputing every reachable node's
// bounds bottom-up over the published structure must reproduce them
// bitwise — path copies and untouched base nodes alike — and the base
// tree's own bounds must be byte-for-byte untouched.
TEST(PBTreeMaintenance, DeltaPathCopiesMatchBottomUpRecomputeBitwise) {
  const model::Database base = testing::RandomDb(24, 4, 7);
  pbtree::PBTree::Options tree_options;
  tree_options.fanout = 4;
  const auto base_tree =
      std::make_shared<const pbtree::PBTree>(base, tree_options);
  // Snapshot the base bounds: sharing means they must never move.
  struct Snapshot {
    std::vector<model::Instance> lbo, ubo;
  };
  std::vector<Snapshot> base_before;
  const std::function<void(const pbtree::Node*)> snapshot =
      [&](const pbtree::Node* node) {
        base_before.push_back({node->lbo.instances(), node->ubo.instances()});
        for (const pbtree::Node* child : node->children) snapshot(child);
      };
  snapshot(base_tree->root());

  model::DatabaseOverlay overlay(base);
  overlay.Materialize();
  const auto epochs = std::make_shared<util::EpochManager>();
  pbtree::DeltaTree tree(base_tree, overlay.db(), epochs);
  util::Rng rng(123);
  for (int step = 0; step < 24; ++step) {
    const model::ObjectId oid =
        static_cast<model::ObjectId>(rng.UniformInt(0, 23));
    const int n = base.object(oid).num_instances();
    std::vector<double> weights(n);
    bool any = false;
    for (double& w : weights) {
      // Zero some instances out to exercise the zero-mass no-op contract.
      w = rng.Bernoulli(0.25) ? 0.0 : rng.Uniform(0.1, 1.0);
      any |= w > 0.0;
    }
    if (!any) weights[0] = 1.0;
    const util::Status s = overlay.Reweight(oid, weights);
    ASSERT_TRUE(s.ok()) << s.ToString();
    tree.UpdateObject(oid);

    // Bottom-up recompute over the *published* structure: every node's
    // bounds must equal what Algorithm 4 produces from its current payload
    // (leaf objects through the delta database, children through the live
    // child pointers) — the bitwise contract that makes a delta tree
    // indistinguishable from a full rebuild of the same shape.
    const pbtree::TreeReader::Pinned pinned = tree.Pin();
    const std::function<void(const pbtree::Node*)> check =
        [&](const pbtree::Node* node) {
          for (const pbtree::Node* child : node->children) check(child);
          const auto inputs = pbtree::internal::NodeInputs(overlay.db(), *node);
          const pbtree::BoundObject lbo = pbtree::BoundObject::LowerBound(inputs);
          const pbtree::BoundObject ubo = pbtree::BoundObject::UpperBound(inputs);
          ASSERT_EQ(lbo.instances().size(), node->lbo.instances().size());
          ASSERT_EQ(ubo.instances().size(), node->ubo.instances().size());
          for (size_t i = 0; i < lbo.instances().size(); ++i) {
            EXPECT_EQ(lbo.instances()[i].value, node->lbo.instances()[i].value);
            EXPECT_EQ(lbo.instances()[i].prob, node->lbo.instances()[i].prob);
          }
          for (size_t i = 0; i < ubo.instances().size(); ++i) {
            EXPECT_EQ(ubo.instances()[i].value, node->ubo.instances()[i].value);
            EXPECT_EQ(ubo.instances()[i].prob, node->ubo.instances()[i].prob);
          }
        };
    check(pinned.root);
  }
  EXPECT_GT(tree.node_copies(), 0);
  EXPECT_GT(tree.delta_bytes(), 0);

  // The shared base tree is bitwise untouched.
  size_t index = 0;
  const std::function<void(const pbtree::Node*)> compare =
      [&](const pbtree::Node* node) {
        EXPECT_EQ(node->version, uint64_t{0});
        const Snapshot& snap = base_before[index++];
        ASSERT_EQ(snap.lbo.size(), node->lbo.instances().size());
        ASSERT_EQ(snap.ubo.size(), node->ubo.instances().size());
        for (size_t i = 0; i < snap.lbo.size(); ++i) {
          EXPECT_EQ(snap.lbo[i].value, node->lbo.instances()[i].value);
          EXPECT_EQ(snap.lbo[i].prob, node->lbo.instances()[i].prob);
        }
        for (size_t i = 0; i < snap.ubo.size(); ++i) {
          EXPECT_EQ(snap.ubo[i].value, node->ubo.instances()[i].value);
          EXPECT_EQ(snap.ubo[i].prob, node->ubo.instances()[i].prob);
        }
        for (const pbtree::Node* child : node->children) compare(child);
      };
  compare(base_tree->root());
}

// Satellite 1: a calculator built before an in-place reweight must not be
// reused — the old (db, k)-only check silently served stale probabilities.
TEST(SelectorOptionsTest, MembershipForRejectsStaleCalculatorAfterReweight) {
  const model::Database base = testing::PaperExampleDb();
  model::DatabaseOverlay overlay(base);
  core::SelectorOptions options;
  options.k = 2;
  options.membership = options.MembershipFor(overlay.db());
  // Fresh calculator: reused. (overlay.db() still aliases the base — the
  // copy is lazy — so a calculator built on the base qualifies too.)
  EXPECT_EQ(options.MembershipFor(overlay.db()), options.membership);

  const util::Status s = overlay.Reweight(0, {1.0, 3.0});
  ASSERT_TRUE(s.ok()) << s.ToString();
  // The reweight materialized a private copy; overlay.db() now names a
  // different database object, so the old calculator must not be reused.
  const auto fresh = options.MembershipFor(overlay.db());
  EXPECT_NE(fresh, options.membership);
  EXPECT_EQ(&fresh->db(), &overlay.db());
  EXPECT_EQ(fresh->db_version(), overlay.db().mutation_version());
  EXPECT_NE(&options.membership->db(), &overlay.db());
}

// The engine's Fold formula matches the documented marginal rule
//   p'_s(i) ∝ p_s(i)·Pr_l(l > i),  p'_l(j) ∝ p_l(j)·Pr_s(s < j)
// computed by hand from the pre-fold working marginals.
TEST(RankingEngineTest, FoldMatchesMarginalFoldFormula) {
  const model::Database base = testing::RandomDb(5, 3, 42);
  engine::RankingEngine::Options options;
  options.k = 2;
  engine::RankingEngine eng(base, options);

  const model::ObjectId smaller = 1, larger = 3;
  const auto& so = eng.working_db().object(smaller);
  const auto& lo = eng.working_db().object(larger);
  std::vector<double> expect_s, expect_l;
  double total_s = 0.0, total_l = 0.0;
  for (const auto& inst : so.instances()) {
    expect_s.push_back(inst.prob * lo.MassGreater(inst));
    total_s += expect_s.back();
  }
  for (const auto& inst : lo.instances()) {
    expect_l.push_back(inst.prob * so.MassLess(inst));
    total_l += expect_l.back();
  }
  ASSERT_GT(total_s, 0.0);
  ASSERT_GT(total_l, 0.0);

  engine::RankingEngine::FoldOutcome outcome;
  const util::Status s =
      eng.Fold(smaller, larger, /*update_working=*/true, &outcome);
  ASSERT_TRUE(s.ok()) << s.ToString();
  ASSERT_EQ(outcome, engine::RankingEngine::FoldOutcome::kApplied);
  for (const auto& inst : eng.working_db().object(smaller).instances()) {
    EXPECT_NEAR(inst.prob, expect_s[inst.iid] / total_s, kTol);
  }
  for (const auto& inst : eng.working_db().object(larger).instances()) {
    EXPECT_NEAR(inst.prob, expect_l[inst.iid] / total_l, kTol);
  }
  // The base database is untouched by folds.
  for (const auto& inst : eng.base_db().object(smaller).instances()) {
    EXPECT_EQ(inst.prob, base.object(smaller).instances()[inst.iid].prob);
  }
}

// Satellite 2 (engine side): Distribution/Quality are memoized per
// constraint-set version — repeated reads cost zero extra enumerations.
TEST(RankingEngineTest, DistributionIsMemoizedPerVersion) {
  const model::Database base = testing::PaperExampleDb();
  engine::RankingEngine::Options options;
  options.k = 2;
  engine::RankingEngine eng(base, options);

  ASSERT_TRUE(eng.Quality().ok());
  ASSERT_TRUE(eng.Distribution().ok());
  ASSERT_TRUE(eng.Quality().ok());
  EXPECT_EQ(eng.counters().enumerations, 1);
  EXPECT_EQ(eng.counters().distribution_hits, 2);

  engine::RankingEngine::FoldOutcome outcome;
  ASSERT_TRUE(eng.Fold(2, 0, /*update_working=*/false, &outcome).ok());
  ASSERT_EQ(outcome, engine::RankingEngine::FoldOutcome::kApplied);
  ASSERT_TRUE(eng.Quality().ok());
  ASSERT_TRUE(eng.Quality().ok());
  EXPECT_EQ(eng.counters().enumerations, 2);
  EXPECT_EQ(eng.counters().distribution_hits, 3);
}

#if PTK_METRICS
// One memo per constraint-set version serves Quality() under every
// objective. ptk_engine_semantics_evals_total counts only the objectives
// that do not read the distribution (entropy's quality is the memoized
// distribution's entropy, counted by the enumeration counter instead).
TEST(RankingEngineTest, OneMemoServesEveryObjective) {
  const model::Database base = testing::PaperExampleDb();
  for (const core::SemanticsId id :
       {core::SemanticsId::kEntropy, core::SemanticsId::kExpectedRank,
        core::SemanticsId::kUKRanks}) {
    engine::RankingEngine::Options options;
    options.k = 2;
    options.semantics = id;
    engine::RankingEngine eng(base, options);
    const std::string counter_name =
        "ptk_engine_semantics_evals_total{semantics=\"" +
        std::string(eng.semantics().name()) + "\"}";
    obs::Counter* evals = obs::GetCounter(counter_name, "");
    const int64_t evals_before = evals->Value();
    const bool reads_distribution = eng.semantics().needs_distribution();

    ASSERT_TRUE(eng.Quality().ok());
    ASSERT_TRUE(eng.Quality().ok());
    EXPECT_EQ(evals->Value() - evals_before, reads_distribution ? 0 : 1)
        << counter_name;
    EXPECT_EQ(eng.counters().enumerations, reads_distribution ? 1 : 0);
    EXPECT_EQ(eng.counters().distribution_hits, 1);

    engine::RankingEngine::FoldOutcome outcome;
    ASSERT_TRUE(eng.Fold(2, 0, /*update_working=*/false, &outcome).ok());
    ASSERT_EQ(outcome, engine::RankingEngine::FoldOutcome::kApplied);
    ASSERT_TRUE(eng.Quality().ok());
    EXPECT_EQ(evals->Value() - evals_before, reads_distribution ? 0 : 2)
        << counter_name;
    EXPECT_EQ(eng.counters().enumerations, reads_distribution ? 2 : 0);
  }
}
#endif  // PTK_METRICS

// Per-session objective state is O(answers): after the same six
// consistent folds, each objective reports the same semantics_bytes on a
// 500- and a 4,000-object SYN catalog — nothing it keeps is sized by m —
// and those bytes count toward DeltaMemory().total(), the figure the
// serving layer reports as session_bytes. Entropy keeps no objective
// state, so its share is 0 and every entropy byte count stays as it was.
TEST(RankingEngineTest, SemanticsBytesDoNotGrowWithTheCatalog) {
  const auto semantics_bytes = [](core::SemanticsId id, int m) -> int64_t {
    data::SynOptions syn;
    syn.num_objects = m;
    syn.seed = 6;
    const model::Database db = data::MakeSynDataset(syn);
    engine::RankingEngine::Options options;
    options.k = 5;
    options.semantics = id;
    engine::RankingEngine eng(db, options);
    // Six disjoint pairs of objects whose value ranges overlap, so every
    // fold reweights both objects; answered as one sampled world orders
    // them, so every fold applies.
    const std::vector<double> world = crowd::SampleWorldValues(db, 7);
    const auto span = [&](model::ObjectId o) {
      const auto& inst = db.object(o).instances();
      return std::make_pair(inst.front().value, inst.back().value);
    };
    std::vector<bool> used(m, false);
    int folds = 0;
    for (model::ObjectId a = 0; a < m && folds < 6; ++a) {
      for (model::ObjectId b = a + 1; b < m && !used[a]; ++b) {
        if (used[b] || span(a).second < span(b).first ||
            span(b).second < span(a).first) {
          continue;
        }
        used[a] = used[b] = true;
        engine::RankingEngine::FoldOutcome outcome;
        const bool a_first = world[a] < world[b];
        EXPECT_TRUE(eng.Fold(a_first ? a : b, a_first ? b : a, false,
                             &outcome)
                        .ok());
        EXPECT_EQ(outcome, engine::RankingEngine::FoldOutcome::kApplied);
        ++folds;
      }
    }
    EXPECT_EQ(folds, 6);
    // Exercise the objective's memo the way a session does.
    EXPECT_TRUE(eng.Quality().ok());
    std::vector<core::ScoredPair> picks;
    EXPECT_TRUE(
        eng.MakeSelector(core::SelectorKind::kOpt)->SelectPairs(3, &picks)
            .ok());
    const engine::RankingEngine::MemoryFootprint memory = eng.DeltaMemory();
    EXPECT_EQ(memory.total(), memory.overlay_bytes +
                                  memory.membership_bytes +
                                  memory.tree_bytes + memory.semantics_bytes);
    return memory.semantics_bytes;
  };
  for (const core::SemanticsId id :
       {core::SemanticsId::kExpectedRank, core::SemanticsId::kUKRanks}) {
    const int64_t small = semantics_bytes(id, 500);
    EXPECT_GT(small, 0) << core::SemanticsName(id);
    EXPECT_EQ(small, semantics_bytes(id, 4000)) << core::SemanticsName(id);
  }
  EXPECT_EQ(semantics_bytes(core::SemanticsId::kEntropy, 500), 0);
  EXPECT_EQ(semantics_bytes(core::SemanticsId::kEntropy, 4000), 0);
}

// Satellite 2 (session side): CurrentDistribution between rounds serves
// the engine's memo — the enumeration count must not grow.
TEST(CleaningSessionTest, CurrentDistributionIsMemoized) {
  const model::Database db = testing::PaperExampleDb();
  core::SelectorOptions sel_options;
  sel_options.k = 2;
  sel_options.fanout = 2;
  core::BoundSelector selector(db, sel_options,
                               core::BoundSelector::Mode::kOptimized);
  crowd::GroundTruthOracle oracle(crowd::SampleWorldValues(db, 5));
  crowd::CleaningSession::Options options;
  options.k = 2;
  crowd::CleaningSession session(db, &selector, &oracle, options);
  ASSERT_TRUE(session.Init().ok());

  const util::StatusOr<crowd::CleaningSession::RoundReport> report =
      session.RunRound(1);
  ASSERT_TRUE(report.ok());
  const int64_t enumerations = session.engine().counters().enumerations;

  const util::StatusOr<pw::TopKDistribution> first =
      session.CurrentDistribution();
  const util::StatusOr<pw::TopKDistribution> second =
      session.CurrentDistribution();
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(session.engine().counters().enumerations, enumerations);
  EXPECT_GE(session.engine().counters().distribution_hits, 2);
  ExpectDistributionMatches(*first, *second);
  EXPECT_NEAR(first->Entropy(), report->quality_after, kTol);
}

// Acceptance: the adaptive cleaner no longer rebuilds the working database
// per answered pair — the engine's overlay is mutated in place, so the
// working database's identity is stable across the whole run.
TEST(AdaptiveCleanerTest, WorkingDatabaseIsStableAcrossSteps) {
  const model::Database db = testing::RandomDb(8, 3, 99);
  crowd::GroundTruthOracle oracle(crowd::SampleWorldValues(db, 6));
  crowd::AdaptiveCleaner::Options options;
  options.k = 2;
  options.fanout = 4;
  crowd::AdaptiveCleaner cleaner(db, &oracle, options);
  ASSERT_TRUE(cleaner.Init().ok());
  const model::Database* working_before = &cleaner.working_db();

  const util::StatusOr<std::vector<crowd::AdaptiveCleaner::StepReport>>
      steps = cleaner.Run(5);
  ASSERT_TRUE(steps.ok());
  ASSERT_EQ(steps->size(), 5u);
  EXPECT_EQ(&cleaner.working_db(), working_before);

  int64_t applied = 0;
  for (const auto& step : *steps) applied += step.applied ? 1 : 0;
  EXPECT_EQ(cleaner.engine().counters().folds_applied, applied);
  // The original database still carries its original marginals.
  for (const auto& obj : db.objects()) {
    for (const auto& inst : obj.instances()) {
      EXPECT_EQ(inst.prob,
                cleaner.engine().base_db().object(obj.id()).instances()
                    [inst.iid].prob);
    }
  }
}

TEST(SelectorKindTest, NamesRoundTrip) {
  for (core::SelectorKind kind : core::AllSelectorKinds()) {
    const auto parsed =
        core::SelectorKindFromName(core::SelectorKindName(kind));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(core::SelectorKindFromName("nope").has_value());
}

}  // namespace
}  // namespace ptk
