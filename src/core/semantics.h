#ifndef PTK_CORE_SEMANTICS_H_
#define PTK_CORE_SEMANTICS_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/selector.h"
#include "model/database.h"
#include "pw/topk_distribution.h"
#include "topk/semantics.h"
#include "util/status.h"
#include "util/statusor.h"

namespace ptk::core {

/// Which answer semantics a cleaning session optimizes toward. The paper
/// fixes one objective — entropy over top-k result sets (Eq. 4) — but the
/// probabilistic top-k literature defines a family of answer semantics
/// with different uncertainty profiles (U-Topk/U-kRanks, expected ranks;
/// see topk/semantics.h). RankingSemantics packages an objective so the
/// engine, the selectors, and the serving protocol can treat "what are we
/// cleaning toward" as a per-session axis.
///
/// The numeric values are a wire/persistence contract: they are journaled
/// verbatim in persist::SessionMeta and cross-checked on recovery. Never
/// renumber; only append.
enum class SemanticsId : uint8_t {
  kEntropy = 0,       // entropy over top-k result sets (the paper's Eq. 4)
  kExpectedRank = 1,  // total variance of per-object expected ranks
  kUKRanks = 2,       // per-rank winner confidence (U-kRanks style)
};

/// "entropy", "expected_rank", "ukranks" — the protocol/CLI name.
std::string_view SemanticsName(SemanticsId id);

/// Inverse of SemanticsName, case-insensitive; nullopt for unknown names.
std::optional<SemanticsId> SemanticsFromName(std::string_view name);

/// Maps a persisted/wire byte back to a SemanticsId; nullopt when the byte
/// names no known semantics (recovery refuses such journals).
std::optional<SemanticsId> SemanticsFromWire(uint8_t wire);

/// Every id, in declaration order — for ablation sweeps and tests.
std::vector<SemanticsId> AllSemantics();

/// Everything an objective may read when asked for an answer or an
/// uncertainty value. `base` is the finalized immutable database (its
/// global sorted index is the instance total order); `working` carries the
/// conditioned marginals (== base until the first update_working fold).
/// `distribution` is only populated for objectives that declare
/// needs_distribution() — building it is exponential-ish work the engine
/// skips otherwise.
struct SemanticsContext {
  const model::Database* base = nullptr;
  const model::Database* working = nullptr;
  int k = 0;
  pw::OrderMode order = pw::OrderMode::kInsensitive;
  const pw::TopKDistribution* distribution = nullptr;
};

/// A pluggable ranking objective: the point answer for a conditioned
/// database, the uncertainty functional the cleaner minimizes, and an
/// incremental refresh hook so engine::RankingEngine can keep per-
/// semantics memoized state across Folds the way it already memoizes the
/// entropy distribution.
///
/// Determinism contract (DESIGN.md §4.16): any state cached across
/// OnFold() calls must be a pure function of the *current* working
/// marginals — i.e. rebuilding from scratch after Invalidate() must yield
/// bit-identical values to any incremental update history. Recovery
/// replays depend on this: a recovered session rebuilds the memo lazily
/// from restored probabilities and must report the same uncertainty bits
/// as the uninterrupted process.
class RankingSemantics {
 public:
  virtual ~RankingSemantics() = default;

  virtual SemanticsId id() const = 0;
  std::string_view name() const { return SemanticsName(id()); }

  /// True if Uncertainty()/PointAnswer() read ctx.distribution (the exact
  /// top-k set distribution). Only the entropy objective needs it.
  virtual bool needs_distribution() const = 0;

  /// True if the objective reads the conditioned *marginals*: the engine
  /// then applies every fold to the working copy (marginal reweight)
  /// regardless of the caller's update_working choice, since otherwise
  /// answers would never move the objective.
  virtual bool requires_working_fold() const = 0;

  /// Called after an applied fold reweighted `working`'s marginals for
  /// `smaller` and `larger`. Implementations refresh any memoized state
  /// touching those objects; stateless objectives no-op.
  virtual void OnFold(const model::Database& working, model::ObjectId smaller,
                      model::ObjectId larger) = 0;

  /// Drops all memoized state (working copy replaced or restored).
  virtual void Invalidate() = 0;

  /// Heap bytes of the state this objective keeps for its session — the
  /// memo OnFold/Invalidate manage. O(answers folded) for every objective
  /// (0 for entropy, whose distribution memo the engine owns); shared
  /// per-catalog state such as the ExpectedRankTable is not charged.
  virtual int64_t MemoryBytes() const = 0;

  /// The scalar the cleaner minimizes; lower is better, 0 = certain.
  virtual double Uncertainty(const SemanticsContext& ctx) = 0;

  /// The point answer under this semantics: k scored objects (score
  /// meaning is per-semantics: result probability, expected rank, or
  /// per-rank winner confidence).
  virtual util::StatusOr<std::vector<topk::ScoredObject>> PointAnswer(
      const SemanticsContext& ctx) = 0;

  /// Expected reduction of Uncertainty() from crowdsourcing the pair
  /// (a, b): outcomes are weighted by the current pairwise order
  /// probability and each outcome's posterior uses the same marginal
  /// reweight the engine's Fold applies.
  virtual util::StatusOr<double> PairImprovement(const SemanticsContext& ctx,
                                                 model::ObjectId a,
                                                 model::ObjectId b) = 0;
};

/// The expected_rank objective's per-catalog sweep table (DESIGN.md
/// §4.16). Each pair term of that objective factors over positions,
///   g(1-g) = Σ_{i,i'} p_xi·p_xi'·F_y(pos_xi)·S_y(pos_xi'),
/// with F_y / S_y the mass y places before / after a position, so one
/// Fenwick sweep over the base sorted index yields, per object x, the
/// n_x × n_x block Q_x[i][i'] = Σ_{y≠x} F_y(pos_xi)·S_y(pos_xi') and the
/// base uncertainty Σ_x p_xᵀ·Q_x·p_x. It depends on the base database
/// alone: the serving layer creates one holder per catalog and hands it
/// to every session's engine (RankingEngine::Options::shared_rank_table),
/// the first expected_rank evaluation builds it — O(N log N) time,
/// Σ n_x² doubles — and from then on it is read-only. Thread-safe.
class ExpectedRankTable {
 public:
  struct Sweep {
    std::vector<size_t> offset;  // per object: start of its block
    std::vector<double> blocks;  // Q_x, row-major n_x × n_x, back to back
    double total = 0.0;          // Σ_x p_xᵀ·Q_x·p_x on base marginals

    const double* Block(model::ObjectId x) const {
      return blocks.data() + offset[x];
    }
  };

  /// Binds the holder to `base` (finalized, outliving the holder); builds
  /// nothing yet.
  explicit ExpectedRankTable(const model::Database& base) : base_(&base) {}

  const model::Database& base() const { return *base_; }

  /// The table, built on the first call; concurrent first callers wait
  /// for the one build.
  const Sweep& Get() const;

 private:
  const model::Database* base_;
  mutable std::once_flag built_;
  mutable Sweep sweep_;
};

/// Factory: a fresh (stateful) objective instance. One per engine — the
/// memoized state tracks that engine's working copy. `rank_table` is the
/// catalog's shared expected_rank table; that objective builds a private
/// one on first use when it is null or bound to another database, and the
/// other objectives ignore it.
std::unique_ptr<RankingSemantics> MakeSemantics(
    SemanticsId id, std::shared_ptr<ExpectedRankTable> rank_table = nullptr);

/// Selector adapter for non-default objectives: asks the wrapped selector
/// for a candidate pool (at least `candidate_pool` pairs), rescores every
/// candidate by RankingSemantics::PairImprovement, and returns the top t
/// by that score (descending, ties broken by ascending (a, b) — fully
/// deterministic). ei_estimate/ei_lower/ei_upper all carry the semantics
/// score. The entropy objective never goes through this wrapper: its EI
/// machinery (exact + Δ-bounds) predates it and stays byte-identical.
class RescoredSelector final : public PairSelector {
 public:
  /// `semantics` must outlive the selector; `context` is captured by value
  /// (its pointers must stay valid and reflect the live working state).
  RescoredSelector(std::unique_ptr<PairSelector> inner,
                   RankingSemantics* semantics, SemanticsContext context,
                   int candidate_pool);

  util::Status SelectPairs(int t, std::vector<ScoredPair>* out) override;
  std::string name() const override;

 private:
  std::unique_ptr<PairSelector> inner_;
  RankingSemantics* semantics_;
  SemanticsContext context_;
  int candidate_pool_;
};

}  // namespace ptk::core

#endif  // PTK_CORE_SEMANTICS_H_
