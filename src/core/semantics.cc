#include "core/semantics.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cctype>
#include <numeric>
#include <unordered_map>
#include <utility>

#include "rank/pairwise_prob.h"
#include "rank/poisson_binomial.h"

namespace ptk::core {

namespace {

constexpr std::array<std::pair<SemanticsId, std::string_view>, 3>
    kSemanticsNames = {{
        {SemanticsId::kEntropy, "entropy"},
        {SemanticsId::kExpectedRank, "expected_rank"},
        {SemanticsId::kUKRanks, "ukranks"},
    }};

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

/// The engine Fold's marginal reweight, simulated for outcome `s < l`:
/// ps[i] = p_s(i) * P(l ranks above instance i), pl[j] = p_l(j) * P(s
/// ranks below instance j), each renormalized to sum 1. Returns false when
/// the outcome carries no mass (the engine's kDegenerate case).
bool ConditionPair(const model::UncertainObject& s,
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

// ---------------------------------------------------------------------------
// entropy — the paper's Eq. 4 objective, extracted behind the interface.
// The engine still builds the exact top-k distribution itself (memoized,
// counted); this class only turns it into the scalar, so routing the
// default path through it is bit-identical to the historical
// `dist_.Entropy()` call.
// ---------------------------------------------------------------------------

class EntropySemantics final : public RankingSemantics {
 public:
  SemanticsId id() const override { return SemanticsId::kEntropy; }
  bool needs_distribution() const override { return true; }
  bool requires_working_fold() const override { return false; }
  void OnFold(const model::Database&, model::ObjectId,
              model::ObjectId) override {}
  void Invalidate() override {}
  int64_t MemoryBytes() const override { return 0; }

  double Uncertainty(const SemanticsContext& ctx) override {
    // Precondition (needs_distribution): ctx.distribution is populated.
    return ctx.distribution->Entropy();
  }

  util::StatusOr<std::vector<topk::ScoredObject>> PointAnswer(
      const SemanticsContext& ctx) override {
    if (ctx.distribution == nullptr) {
      return util::Status::FailedPrecondition(
          "entropy semantics requires the top-k distribution");
    }
    const auto sorted = ctx.distribution->SortedByProbDesc();
    if (sorted.empty()) {
      return util::Status::Internal("empty top-k distribution");
    }
    std::vector<topk::ScoredObject> answer;
    answer.reserve(sorted.front().first.size());
    for (model::ObjectId oid : sorted.front().first) {
      answer.push_back(topk::ScoredObject{oid, sorted.front().second});
    }
    return answer;
  }

  util::StatusOr<double> PairImprovement(const SemanticsContext&,
                                         model::ObjectId,
                                         model::ObjectId) override {
    // The entropy objective keeps its dedicated EI machinery (exact sweep
    // + Δ-bounds in core::QualityEvaluator / the bound selectors); it is
    // never routed through the rescoring wrapper.
    return util::Status::FailedPrecondition(
        "entropy pairs are scored by the EI machinery");
  }
};

// ---------------------------------------------------------------------------
// expected_rank — uncertainty = total variance of per-object ranks under
// the marginal-independence approximation: rank(o) = sum_j 1[j before o],
// Var = sum_{o, j != o} h(o, j) with h = P(j before o) * P(j after o).
// While every other object holds its base marginal, object x's row
// sum_j h(x, j) is the quadratic form p_x' Q_x p_x over the shared
// ExpectedRankTable, so the working value is the table's base total
// corrected pair by pair for the changed set C: the objects whose working
// marginals differ bitwise from the base. That costs O(|C|^2 n) per
// Uncertainty and O(|C| n + n^2) per PairImprovement, and the only
// per-session state is C itself. C is defined by content, not by which
// objects carry an override: a snapshot drops overrides equal to the base,
// so a restored engine and the live one see the same C, evaluate the same
// terms in the same order, and agree bitwise.
// ---------------------------------------------------------------------------

/// h(x, y) = P(y before x) * P(y after x) for x under the marginal `p`
/// against y's marginal `y` (base or working), positions from the base:
/// sum_i p_i F_y(pos_xi) times sum_i p_i S_y(pos_xi). x and y never share
/// a position, so each sum walks y's instances once.
double PairVariance(const model::Database& base, model::ObjectId x,
                    const std::vector<double>& p,
                    const model::UncertainObject& y) {
  const int nx = static_cast<int>(p.size());
  const int ny = y.num_instances();
  double before = 0.0, mass = 0.0;
  for (int i = 0, j = 0; i < nx; ++i) {
    const model::Position at = base.PositionOf({x, i});
    for (; j < ny && base.PositionOf({y.id(), j}) < at; ++j) {
      mass += y.instance(j).prob;
    }
    before += p[i] * mass;
  }
  double after = 0.0;
  mass = 0.0;
  for (int i = nx - 1, j = ny - 1; i >= 0; --i) {
    const model::Position at = base.PositionOf({x, i});
    for (; j >= 0 && base.PositionOf({y.id(), j}) > at; --j) {
      mass += y.instance(j).prob;
    }
    after += p[i] * mass;
  }
  return before * after;
}

/// v' Q v - u' Q u for the row-major n x n block `q`, as d' Q v + u' Q d
/// with d = v - u, so two nearly equal rows never cancel.
double QuadShift(const double* q, const std::vector<double>& u,
                 const std::vector<double>& v) {
  const size_t n = u.size();
  double shift = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double d = v[i] - u[i];
    for (size_t i2 = 0; i2 < n; ++i2) {
      shift += q[i * n + i2] * (d * v[i2] + u[i] * (v[i2] - u[i2]));
    }
  }
  return shift;
}

void ProbsOf(const model::UncertainObject& obj, std::vector<double>* probs) {
  probs->resize(obj.num_instances());
  for (int i = 0; i < obj.num_instances(); ++i) {
    (*probs)[i] = obj.instance(i).prob;
  }
}

bool SameMarginal(const model::UncertainObject& x,
                  const model::UncertainObject& y) {
  for (int i = 0; i < x.num_instances(); ++i) {
    if (std::bit_cast<uint64_t>(x.instance(i).prob) !=
        std::bit_cast<uint64_t>(y.instance(i).prob)) {
      return false;
    }
  }
  return true;
}

class ExpectedRankSemantics final : public RankingSemantics {
 public:
  explicit ExpectedRankSemantics(std::shared_ptr<ExpectedRankTable> table)
      : table_(std::move(table)) {}

  SemanticsId id() const override { return SemanticsId::kExpectedRank; }
  bool needs_distribution() const override { return false; }
  bool requires_working_fold() const override { return true; }

  void OnFold(const model::Database&, model::ObjectId,
              model::ObjectId) override {
    Invalidate();
  }

  void Invalidate() override { changed_for_ = nullptr; }

  int64_t MemoryBytes() const override {
    return static_cast<int64_t>(changed_.capacity() *
                                sizeof(model::ObjectId));
  }

  double Uncertainty(const SemanticsContext& ctx) override {
    const ExpectedRankTable::Sweep& sweep = Table(ctx).Get();
    const std::vector<model::ObjectId>& changed = Changed(ctx);
    const model::Database& base = *ctx.base;
    const model::Database& working = *ctx.working;
    // With primes marking working marginals,
    //   U = total + sum_{c in C} [2 (p'_c Q_c p'_c - p_c Q_c p_c)
    //         + sum_{y in C, y != c} (h(c', y') - 2 h(c', y) + h(c, y))]:
    // the doubled shift moves c's row and its column (h is symmetric)
    // against base columns, and the pair sum corrects the entries where
    // both objects changed.
    double total = sweep.total;
    std::vector<double> pb, pw;
    for (model::ObjectId c : changed) {
      ProbsOf(base.object(c), &pb);
      ProbsOf(working.object(c), &pw);
      double shift = 2.0 * QuadShift(sweep.Block(c), pb, pw);
      for (model::ObjectId y : changed) {
        if (y == c) continue;
        shift += PairVariance(base, c, pw, working.object(y)) -
                 2.0 * PairVariance(base, c, pw, base.object(y)) +
                 PairVariance(base, c, pb, base.object(y));
      }
      total += shift;
    }
    return std::max(total, 0.0);
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
    const int m = ctx.base->num_objects();
    if (a == b || a < 0 || b < 0 || a >= m || b >= m) {
      return util::Status::InvalidArgument("invalid pair");
    }
    const ExpectedRankTable::Sweep& sweep = Table(ctx).Get();
    const std::vector<model::ObjectId>& changed = Changed(ctx);
    const model::Database& working = *ctx.working;
    // P(b before a) and P(a before b), each from the one ProbGreater of
    // the canonical orientation (smaller id first).
    const double g = rank::ProbGreater(working.object(std::min(a, b)),
                                       working.object(std::max(a, b)));
    const double w_b_first = a < b ? g : 1.0 - g;
    const double w_a_first = a < b ? 1.0 - g : g;
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
      // The (a, b) order becomes certain, so its variance term vanishes.
      double delta = -PairTerm(w_b_first);
      delta += 2.0 * RowShift(ctx, sweep, changed, s, l, ps);
      delta += 2.0 * RowShift(ctx, sweep, changed, l, s, pl);
      expected_delta += w * delta;
    }
    return -expected_delta;  // expected uncertainty *reduction*
  }

 private:
  // One unordered pair contributes b(1-b) to both its rows.
  static double PairTerm(double b) { return 2.0 * b * (1.0 - b); }

  /// How x's row, without the columns x and `other`, moves when x's
  /// working marginal is replaced by `p`: the table's block counts every
  /// column at its base marginal, so each changed column is swapped to
  /// its working marginal and `other` is dropped at its base marginal.
  static double RowShift(const SemanticsContext& ctx,
                         const ExpectedRankTable::Sweep& sweep,
                         const std::vector<model::ObjectId>& changed,
                         model::ObjectId x, model::ObjectId other,
                         const std::vector<double>& p) {
    const model::Database& base = *ctx.base;
    const model::Database& working = *ctx.working;
    std::vector<double> now;
    ProbsOf(working.object(x), &now);
    // How one column moves with x's marginal.
    const auto moved = [&](const model::UncertainObject& y) {
      return PairVariance(base, x, p, y) - PairVariance(base, x, now, y);
    };
    double shift =
        QuadShift(sweep.Block(x), now, p) - moved(base.object(other));
    for (model::ObjectId y : changed) {
      if (y == x || y == other) continue;
      shift += moved(working.object(y)) - moved(base.object(y));
    }
    return shift;
  }

  const ExpectedRankTable& Table(const SemanticsContext& ctx) {
    if (table_ == nullptr || &table_->base() != ctx.base) {
      table_ = std::make_shared<ExpectedRankTable>(*ctx.base);
    }
    return *table_;
  }

  /// C for the context's working database, ascending; memoized until the
  /// working database moves on (another object or mutation version) or
  /// OnFold/Invalidate.
  const std::vector<model::ObjectId>& Changed(const SemanticsContext& ctx) {
    const model::Database& base = *ctx.base;
    const model::Database& working = *ctx.working;
    if (changed_for_ == &working &&
        changed_version_ == working.mutation_version()) {
      return changed_;
    }
    changed_.clear();
    const auto collect = [&](model::ObjectId oid) {
      if (!SameMarginal(base.object(oid), working.object(oid))) {
        changed_.push_back(oid);
      }
    };
    if (working.is_delta() && working.delta_base() == &base) {
      for (model::ObjectId oid : working.OverriddenObjects()) collect(oid);
    } else if (&working != &base) {
      // Not a delta of this base (a caller-built context): scan it all.
      for (model::ObjectId oid = 0; oid < base.num_objects(); ++oid) {
        collect(oid);
      }
    }
    changed_for_ = &working;
    changed_version_ = working.mutation_version();
    return changed_;
  }

  std::shared_ptr<ExpectedRankTable> table_;
  std::vector<model::ObjectId> changed_;
  const model::Database* changed_for_ = nullptr;
  uint64_t changed_version_ = 0;
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
  /// The scan stops once k objects are certainly ranked, so it keeps
  /// prefix masses and rank probabilities only for the objects it visits
  /// before that: the contested prefix, not the catalog. Objects it never
  /// reaches have zero rank mass and can never win a rank (wins need a
  /// strictly positive probability), so picking winners among the
  /// visited objects in ascending id order reproduces the full argmax
  /// bit for bit.
  static std::vector<topk::ScoredObject> ComputeProfile(
      const SemanticsContext& ctx, const std::vector<double>* pa = nullptr,
      model::ObjectId oa = model::kInvalidObject,
      const std::vector<double>* pb = nullptr,
      model::ObjectId ob = model::kInvalidObject) {
    const model::Database& base = *ctx.base;
    const model::Database& working = *ctx.working;
    const int k = std::clamp(ctx.k, 1, base.num_objects());
    auto prob_of = [&](model::ObjectId oid, model::InstanceId iid) {
      if (pa != nullptr && oid == oa) return (*pa)[iid];
      if (pb != nullptr && oid == ob) return (*pb)[iid];
      return working.object(oid).instance(iid).prob;
    };

    // Per visited object, in visit order: its id, where its n + 1 prefix
    // masses start in `prefix`, and k rank probabilities in `rank_prob`.
    std::unordered_map<model::ObjectId, size_t> slot_of;
    std::vector<model::ObjectId> visited;
    std::vector<size_t> prefix_at;
    std::vector<double> prefix;
    std::vector<double> rank_prob;

    rank::PoissonBinomialTracker tracker;
    std::vector<double> cumulative;
    for (const model::Instance& inst : base.sorted_instances()) {
      if (tracker.shift() >= k) break;
      const auto [it, first_visit] =
          slot_of.try_emplace(inst.oid, visited.size());
      const size_t slot = it->second;
      if (first_visit) {
        const int n = base.object(inst.oid).num_instances();
        visited.push_back(inst.oid);
        prefix_at.push_back(prefix.size());
        const size_t at = prefix.size();
        prefix.resize(at + n + 1, 0.0);
        for (int i = 0; i < n; ++i) {
          prefix[at + i + 1] = prefix[at + i] + prob_of(inst.oid, i);
        }
        prefix[at + n] = 1.0;
        rank_prob.resize(rank_prob.size() + k, 0.0);
      }
      const double* q = &prefix[prefix_at[slot] + inst.iid];
      const double p = prob_of(inst.oid, inst.iid);
      const double q_old = q[0];
      // Zero-mass instances (reweights may zero probabilities) neither
      // contribute rank mass nor move the tracker.
      if (p <= 0.0 || q_old >= 1.0) continue;
      tracker.CumulativeVectorExcluding(k - 1, q_old, &cumulative);
      double* object_rank_prob = &rank_prob[slot * k];
      for (int r = 0; r < k; ++r) {
        const double exactly =
            cumulative[r] - (r > 0 ? cumulative[r - 1] : 0.0);
        object_rank_prob[r] += p * exactly;
      }
      tracker.Update(q_old, q[1]);
    }

    std::vector<size_t> by_id(visited.size());
    std::iota(by_id.begin(), by_id.end(), size_t{0});
    std::sort(by_id.begin(), by_id.end(), [&](size_t x, size_t y) {
      return visited[x] < visited[y];
    });
    std::vector<topk::ScoredObject> profile(k);
    std::vector<double> best(k, 0.0);
    for (size_t slot : by_id) {
      const double* object_rank_prob = &rank_prob[slot * k];
      for (int r = 0; r < k; ++r) {
        if (object_rank_prob[r] > best[r]) {
          best[r] = object_rank_prob[r];
          profile[r] = topk::ScoredObject{visited[slot], object_rank_prob[r]};
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

}  // namespace

const ExpectedRankTable::Sweep& ExpectedRankTable::Get() const {
  std::call_once(built_, [this] {
    const model::Database& base = *base_;
    const int m = base.num_objects();
    sweep_.offset.resize(m);
    size_t size = 0;
    for (model::ObjectId x = 0; x < m; ++x) {
      sweep_.offset[x] = size;
      const size_t n = base.object(x).num_instances();
      size += n * n;
    }
    sweep_.blocks.assign(size, 0.0);

    // Point (pos_yj, pos_yj') of weight p_yj * p_yj' for every object y
    // and instance pair: sum_y F_y(a) S_y(b) is the weight of the points
    // left of a and right of b. The sweep inserts an instance's points
    // after answering its own queries, so at position a the tree holds
    // exactly the points left of a; it is indexed by reversed position,
    // so "right of b" is a prefix sum, never a difference of two sums.
    const std::vector<model::Instance>& sorted = base.sorted_instances();
    const int n_all = static_cast<int>(sorted.size());
    std::vector<double> fenwick(n_all + 1, 0.0);
    for (model::Position pos = 0; pos < n_all; ++pos) {
      const model::Instance& inst = sorted[pos];
      const model::UncertainObject& x = base.object(inst.oid);
      const int n = x.num_instances();
      double* row = sweep_.blocks.data() + sweep_.offset[inst.oid] +
                    static_cast<size_t>(inst.iid) * n;
      // The tree also holds x's own points left of pos; their weight
      // right of pos_xi' is F_x(pos) * S_x(pos_xi'), dropped here.
      double own_before = 0.0;
      for (int j = 0; j < inst.iid; ++j) own_before += x.instance(j).prob;
      double own_after = 0.0;
      for (int i2 = n - 1; i2 >= 0; --i2) {
        double beyond = 0.0;
        for (int s = n_all - 1 - base.PositionOf({inst.oid, i2}); s > 0;
             s -= s & -s) {
          beyond += fenwick[s];
        }
        row[i2] = std::max(0.0, beyond - own_before * own_after);
        own_after += x.instance(i2).prob;
      }
      for (int j = 0; j < n; ++j) {
        const double w = inst.prob * x.instance(j).prob;
        for (int s = n_all - base.PositionOf({inst.oid, j}); s <= n_all;
             s += s & -s) {
          fenwick[s] += w;
        }
      }
    }

    std::vector<double> p;
    for (model::ObjectId x = 0; x < m; ++x) {
      ProbsOf(base.object(x), &p);
      const double* q = sweep_.Block(x);
      for (size_t i = 0; i < p.size(); ++i) {
        for (size_t i2 = 0; i2 < p.size(); ++i2) {
          sweep_.total += p[i] * q[i * p.size() + i2] * p[i2];
        }
      }
    }
  });
  return sweep_;
}

std::string_view SemanticsName(SemanticsId id) {
  for (const auto& [sid, name] : kSemanticsNames) {
    if (sid == id) return name;
  }
  return "?";
}

std::optional<SemanticsId> SemanticsFromName(std::string_view name) {
  for (const auto& [sid, sid_name] : kSemanticsNames) {
    if (EqualsIgnoreCase(sid_name, name)) return sid;
  }
  return std::nullopt;
}

std::optional<SemanticsId> SemanticsFromWire(uint8_t wire) {
  for (const auto& [sid, name] : kSemanticsNames) {
    if (static_cast<uint8_t>(sid) == wire) return sid;
  }
  return std::nullopt;
}

std::vector<SemanticsId> AllSemantics() {
  std::vector<SemanticsId> ids;
  ids.reserve(kSemanticsNames.size());
  for (const auto& [sid, name] : kSemanticsNames) ids.push_back(sid);
  return ids;
}

std::unique_ptr<RankingSemantics> MakeSemantics(
    SemanticsId id, std::shared_ptr<ExpectedRankTable> rank_table) {
  switch (id) {
    case SemanticsId::kEntropy:
      return std::make_unique<EntropySemantics>();
    case SemanticsId::kExpectedRank:
      return std::make_unique<ExpectedRankSemantics>(std::move(rank_table));
    case SemanticsId::kUKRanks:
      return std::make_unique<UKRanksSemantics>();
  }
  return nullptr;  // unreachable
}

RescoredSelector::RescoredSelector(std::unique_ptr<PairSelector> inner,
                                   RankingSemantics* semantics,
                                   SemanticsContext context,
                                   int candidate_pool)
    : inner_(std::move(inner)),
      semantics_(semantics),
      context_(context),
      candidate_pool_(std::max(candidate_pool, 1)) {}

util::Status RescoredSelector::SelectPairs(int t,
                                           std::vector<ScoredPair>* out) {
  std::vector<ScoredPair> candidates;
  util::Status status =
      inner_->SelectPairs(std::max(t, candidate_pool_), &candidates);
  if (!status.ok()) return status;
  for (ScoredPair& pair : candidates) {
    util::StatusOr<double> score =
        semantics_->PairImprovement(context_, pair.a, pair.b);
    if (!score.ok()) return score.status();
    pair.ei_estimate = *score;
    pair.ei_lower = *score;
    pair.ei_upper = *score;
  }
  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const ScoredPair& x, const ScoredPair& y) {
                     if (x.ei_estimate != y.ei_estimate) {
                       return x.ei_estimate > y.ei_estimate;
                     }
                     if (x.a != y.a) return x.a < y.a;
                     return x.b < y.b;
                   });
  if (static_cast<int>(candidates.size()) > t) candidates.resize(t);
  *out = std::move(candidates);
  return util::Status::OK();
}

std::string RescoredSelector::name() const {
  return inner_->name() + "+" + std::string(semantics_->name());
}

}  // namespace ptk::core
