// The dense objectives the sweep-based ones in core/semantics.cc replaced,
// kept verbatim as the reference oracle for the property tests: the
// expected-rank objective with its m x m pairwise matrix, and the U-kRanks
// objective whose rank profile allocates state for every object. Both are
// O(m) to O(m^2) per call and per session, which is why src/ no longer
// ships them; semantics_property_test.cc checks the shipped objectives
// against these on the same contexts. The only addition is
// MemoryBytes(), which the interface now requires.

#ifndef PTK_TESTS_SEMANTICS_REFERENCE_H_
#define PTK_TESTS_SEMANTICS_REFERENCE_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/semantics.h"
#include "model/database.h"
#include "rank/pairwise_prob.h"
#include "rank/poisson_binomial.h"
#include "topk/semantics.h"

namespace ptk::testing::reference {

using core::RankingSemantics;
using core::SemanticsContext;
using core::SemanticsId;

/// The engine Fold's marginal reweight, simulated for outcome `s < l`:
/// ps[i] = p_s(i) * P(l ranks above instance i), pl[j] = p_l(j) * P(s
/// ranks below instance j), each renormalized to sum 1. Returns false when
/// the outcome carries no mass (the engine's kDegenerate case).
inline bool ConditionPair(const model::UncertainObject& s,
                   const model::UncertainObject& l, std::vector<double>* ps,
                   std::vector<double>* pl) {
  ps->resize(s.num_instances());
  pl->resize(l.num_instances());
  double total = 0.0;
  for (int i = 0; i < s.num_instances(); ++i) {
    (*ps)[i] = s.instance(i).prob * l.MassGreater(s.instance(i));
    total += (*ps)[i];
  }
  for (int j = 0; j < l.num_instances(); ++j) {
    (*pl)[j] = l.instance(j).prob * s.MassLess(l.instance(j));
    total += (*pl)[j];
  }
  if (total <= 0.0) return false;
  for (std::vector<double>* probs : {ps, pl}) {
    double sum = 0.0;
    for (double p : *probs) sum += p;
    if (sum <= 0.0) return false;
    for (double& p : *probs) p /= sum;
  }
  return true;
}

/// A copy of `obj` (same id, same values) with replaced probabilities —
/// the posterior marginal a simulated fold would install.
inline model::UncertainObject Reweighted(const model::UncertainObject& obj,
                                  const std::vector<double>& probs) {
  std::vector<std::pair<double, double>> pairs;
  pairs.reserve(obj.instances().size());
  for (int i = 0; i < obj.num_instances(); ++i) {
    pairs.emplace_back(obj.instance(i).value, probs[i]);
  }
  return model::UncertainObject(obj.id(), std::move(pairs));
}

// ---------------------------------------------------------------------------
// expected_rank — uncertainty = total variance of per-object ranks under
// the marginal-independence approximation: rank(o) = sum_j 1[j before o],
// Var = sum_{o,j} b(1-b) with b = P(j before o). The pairwise matrix is
// the memoized state: every entry is a pure function of the two objects'
// *current* working marginals (canonical orientation: computed once per
// unordered pair), so incremental refresh after a fold — recompute the
// rows/columns of the two reweighted objects — is bit-identical to a
// scratch rebuild, which is what recovery relies on.
// ---------------------------------------------------------------------------

class ExpectedRankSemantics final : public RankingSemantics {
 public:
  SemanticsId id() const override { return SemanticsId::kExpectedRank; }
  bool needs_distribution() const override { return false; }
  bool requires_working_fold() const override { return true; }

  void OnFold(const model::Database& working, model::ObjectId smaller,
              model::ObjectId larger) override {
    if (!built_) return;
    if (&working != working_ || working.num_objects() != m_) {
      Invalidate();
      return;
    }
    RefreshObject(working, smaller);
    RefreshObject(working, larger);
  }

  void Invalidate() override {
    built_ = false;
    working_ = nullptr;
    before_.clear();
  }

  int64_t MemoryBytes() const override {
    return static_cast<int64_t>(before_.capacity() * sizeof(double));
  }

  double Uncertainty(const SemanticsContext& ctx) override {
    EnsureBuilt(ctx);
    double total = 0.0;
    for (model::ObjectId o = 0; o < m_; ++o) {
      double var = 0.0;
      for (model::ObjectId j = 0; j < m_; ++j) {
        if (j == o) continue;
        const double b = before_[Idx(o, j)];
        var += b * (1.0 - b);
      }
      total += var;
    }
    return total;
  }

  util::StatusOr<std::vector<topk::ScoredObject>> PointAnswer(
      const SemanticsContext& ctx) override {
    if (ctx.working == nullptr || !ctx.working->finalized()) {
      return util::Status::FailedPrecondition("working database not ready");
    }
    return topk::ExpectedRankTopK(*ctx.working, ctx.k);
  }

  util::StatusOr<double> PairImprovement(const SemanticsContext& ctx,
                                         model::ObjectId a,
                                         model::ObjectId b) override {
    EnsureBuilt(ctx);
    if (a == b || a < 0 || b < 0 || a >= m_ || b >= m_) {
      return util::Status::InvalidArgument("invalid pair");
    }
    const model::Database& working = *ctx.working;
    // before_[Idx(a, b)] = P(b before a) = P(outcome "b smaller").
    const double w_b_first = before_[Idx(a, b)];
    const double w_a_first = before_[Idx(b, a)];
    double expected_delta = 0.0;
    std::vector<double> ps, pl;
    for (int outcome = 0; outcome < 2; ++outcome) {
      const model::ObjectId s = outcome == 0 ? a : b;
      const model::ObjectId l = outcome == 0 ? b : a;
      const double w = outcome == 0 ? w_a_first : w_b_first;
      if (w <= 0.0) continue;
      if (!ConditionPair(working.object(s), working.object(l), &ps, &pl)) {
        continue;  // degenerate outcome: the fold would be rejected
      }
      const model::UncertainObject s2 = Reweighted(working.object(s), ps);
      const model::UncertainObject l2 = Reweighted(working.object(l), pl);
      // The (a, b) order becomes certain, so its variance term vanishes.
      double delta = -PairTerm(before_[Idx(a, b)]);
      for (model::ObjectId j = 0; j < m_; ++j) {
        if (j == a || j == b) continue;
        const model::UncertainObject& jo = working.object(j);
        delta += PairTerm(rank::ProbGreater(s2, jo)) -
                 PairTerm(before_[Idx(s, j)]);
        delta += PairTerm(rank::ProbGreater(l2, jo)) -
                 PairTerm(before_[Idx(l, j)]);
      }
      expected_delta += w * delta;
    }
    return -expected_delta;  // expected uncertainty *reduction*
  }

 private:
  size_t Idx(model::ObjectId o, model::ObjectId j) const {
    return static_cast<size_t>(o) * static_cast<size_t>(m_) +
           static_cast<size_t>(j);
  }

  // One unordered pair contributes b(1-b) to both its rows.
  static double PairTerm(double b) { return 2.0 * b * (1.0 - b); }

  /// Canonical entry computation for the unordered pair {x, y}, x < y:
  /// one ProbGreater call, complements filled from it. Keeping one
  /// orientation per pair is what makes incremental refresh bitwise equal
  /// to a scratch rebuild.
  void SetEntry(const model::Database& working, model::ObjectId x,
                model::ObjectId y) {
    const double g = rank::ProbGreater(working.object(x), working.object(y));
    before_[Idx(x, y)] = g;        // P(y before x)
    before_[Idx(y, x)] = 1.0 - g;  // P(x before y)
  }

  void RefreshObject(const model::Database& working, model::ObjectId o) {
    for (model::ObjectId j = 0; j < m_; ++j) {
      if (j == o) continue;
      SetEntry(working, std::min(o, j), std::max(o, j));
    }
  }

  void EnsureBuilt(const SemanticsContext& ctx) {
    if (built_ && working_ == ctx.working) return;
    working_ = ctx.working;
    m_ = ctx.working->num_objects();
    before_.assign(static_cast<size_t>(m_) * static_cast<size_t>(m_), 0.0);
    for (model::ObjectId x = 0; x < m_; ++x) {
      for (model::ObjectId y = x + 1; y < m_; ++y) {
        SetEntry(*ctx.working, x, y);
      }
    }
    built_ = true;
  }

  bool built_ = false;
  const model::Database* working_ = nullptr;
  model::ObjectId m_ = 0;
  std::vector<double> before_;
};

// ---------------------------------------------------------------------------
// ukranks — uncertainty = sum over ranks r < k of (1 - confidence of the
// rank-r winner), where confidences come from the exact Poisson-binomial
// rank profile (topk::UKRanks's algorithm, evaluated on the conditioned
// working marginals over the base's global sorted order). Recomputed on
// demand and memoized per fold (OnFold just invalidates), so the cache is
// trivially a pure function of the current marginals.
// ---------------------------------------------------------------------------

class UKRanksSemantics final : public RankingSemantics {
 public:
  SemanticsId id() const override { return SemanticsId::kUKRanks; }
  bool needs_distribution() const override { return false; }
  bool requires_working_fold() const override { return true; }

  void OnFold(const model::Database&, model::ObjectId,
              model::ObjectId) override {
    profile_valid_ = false;
  }

  void Invalidate() override {
    profile_valid_ = false;
    profile_.clear();
  }

  int64_t MemoryBytes() const override {
    return static_cast<int64_t>(profile_.capacity() *
                                sizeof(topk::ScoredObject));
  }

  double Uncertainty(const SemanticsContext& ctx) override {
    EnsureProfile(ctx);
    double u = 0.0;
    for (const topk::ScoredObject& winner : profile_) {
      u += 1.0 - winner.score;
    }
    return u;
  }

  util::StatusOr<std::vector<topk::ScoredObject>> PointAnswer(
      const SemanticsContext& ctx) override {
    if (ctx.working == nullptr || !ctx.working->finalized()) {
      return util::Status::FailedPrecondition("working database not ready");
    }
    EnsureProfile(ctx);
    return profile_;
  }

  util::StatusOr<double> PairImprovement(const SemanticsContext& ctx,
                                         model::ObjectId a,
                                         model::ObjectId b) override {
    const int m = ctx.base->num_objects();
    if (a == b || a < 0 || b < 0 || a >= m || b >= m) {
      return util::Status::InvalidArgument("invalid pair");
    }
    EnsureProfile(ctx);
    const double u_now = UncertaintyOf(profile_);
    const model::Database& working = *ctx.working;
    // P(a > b): the probability the crowd answers "b smaller".
    const double g =
        rank::ProbGreater(working.object(a), working.object(b));
    double expected = 0.0;
    std::vector<double> ps, pl;
    for (int outcome = 0; outcome < 2; ++outcome) {
      const model::ObjectId s = outcome == 0 ? a : b;
      const model::ObjectId l = outcome == 0 ? b : a;
      const double w = outcome == 0 ? 1.0 - g : g;
      if (w <= 0.0) continue;
      double u_after = u_now;  // degenerate outcome: fold rejected
      if (ConditionPair(working.object(s), working.object(l), &ps, &pl)) {
        u_after = UncertaintyOf(ComputeProfile(ctx, &ps, s, &pl, l));
      }
      expected += w * u_after;
    }
    return u_now - expected;
  }

 private:
  static double UncertaintyOf(const std::vector<topk::ScoredObject>& prof) {
    double u = 0.0;
    for (const topk::ScoredObject& winner : prof) u += 1.0 - winner.score;
    return u;
  }

  /// topk::UKRanks's tracker scan, reading probabilities from the working
  /// marginals (optionally overridden for up to two objects) while
  /// iterating the *base* sorted index — reweights never change values,
  /// so the base order is the instance total order of the working state
  /// and the delta database never materializes its O(m) bulk view here.
  static std::vector<topk::ScoredObject> ComputeProfile(
      const SemanticsContext& ctx, const std::vector<double>* pa = nullptr,
      model::ObjectId oa = model::kInvalidObject,
      const std::vector<double>* pb = nullptr,
      model::ObjectId ob = model::kInvalidObject) {
    const model::Database& base = *ctx.base;
    const model::Database& working = *ctx.working;
    const int m = base.num_objects();
    const int k = std::clamp(ctx.k, 1, m);
    auto prob_of = [&](model::ObjectId oid, model::InstanceId iid) {
      if (pa != nullptr && oid == oa) return (*pa)[iid];
      if (pb != nullptr && oid == ob) return (*pb)[iid];
      return working.object(oid).instance(iid).prob;
    };

    std::vector<std::vector<double>> prefix(m);
    for (model::ObjectId oid = 0; oid < m; ++oid) {
      const int n = base.object(oid).num_instances();
      auto& p = prefix[oid];
      p.assign(n + 1, 0.0);
      for (int i = 0; i < n; ++i) p[i + 1] = p[i] + prob_of(oid, i);
      p.back() = 1.0;
    }

    rank::PoissonBinomialTracker tracker;
    std::vector<double> cumulative;
    std::vector<std::vector<double>> object_rank_prob(
        m, std::vector<double>(k, 0.0));
    for (const model::Instance& inst : base.sorted_instances()) {
      if (tracker.shift() >= k) break;
      const double p = prob_of(inst.oid, inst.iid);
      const double q_old = prefix[inst.oid][inst.iid];
      // Zero-mass instances (reweights may zero probabilities) neither
      // contribute rank mass nor move the tracker.
      if (p <= 0.0 || q_old >= 1.0) continue;
      tracker.CumulativeVectorExcluding(k - 1, q_old, &cumulative);
      for (int r = 0; r < k; ++r) {
        const double exactly =
            cumulative[r] - (r > 0 ? cumulative[r - 1] : 0.0);
        object_rank_prob[inst.oid][r] += p * exactly;
      }
      tracker.Update(q_old, prefix[inst.oid][inst.iid + 1]);
    }

    std::vector<topk::ScoredObject> profile(k);
    std::vector<double> best(k, 0.0);
    for (model::ObjectId o = 0; o < m; ++o) {
      for (int r = 0; r < k; ++r) {
        if (object_rank_prob[o][r] > best[r]) {
          best[r] = object_rank_prob[o][r];
          profile[r] = topk::ScoredObject{o, object_rank_prob[o][r]};
        }
      }
    }
    return profile;
  }

  void EnsureProfile(const SemanticsContext& ctx) {
    if (profile_valid_) return;
    profile_ = ComputeProfile(ctx);
    profile_valid_ = true;
  }

  bool profile_valid_ = false;
  std::vector<topk::ScoredObject> profile_;
};

/// A fresh reference objective: expected_rank or ukranks.
inline std::unique_ptr<RankingSemantics> MakeReferenceSemantics(
    SemanticsId id) {
  if (id == SemanticsId::kExpectedRank) {
    return std::make_unique<ExpectedRankSemantics>();
  }
  return std::make_unique<UKRanksSemantics>();
}

}  // namespace ptk::testing::reference

#endif  // PTK_TESTS_SEMANTICS_REFERENCE_H_
