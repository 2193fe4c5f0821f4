#ifndef PTK_CORE_SELECTOR_H_
#define PTK_CORE_SELECTOR_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "model/database.h"
#include "pw/topk_distribution.h"
#include "pw/topk_enumerator.h"
#include "rank/membership.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace ptk::pbtree {
class TreeReader;
}

namespace ptk::core {

/// Options shared by the selection algorithms.
struct SelectorOptions {
  int k = 10;
  pw::OrderMode order = pw::OrderMode::kInsensitive;

  /// Used by the exact (brute-force) evaluation path.
  pw::EnumeratorOptions enumerator;

  /// PB-tree fanout for the index-based selectors.
  int fanout = 8;

  /// Seed for the randomized baselines.
  uint64_t seed = 42;

  /// RAND_K draws pairs from this fraction of objects, ranked by their
  /// probability of appearing in the top-k result (Section 6.2).
  double rand_k_fraction = 0.2;

  /// HRS2 greedily combines pairs from a candidate pool of this size.
  int candidate_pool = 64;

  /// Shard count / pool for BF's exact EI sweep (PBTREE and OPT evaluate
  /// inline and ignore it). Selector output is bit-identical for every
  /// setting (see DESIGN.md, "Parallel execution").
  util::ParallelConfig parallel;

  /// Cooperative cancellation token (util::CancelSource::token()), polled
  /// at batch boundaries of the selection loops; a set flag aborts
  /// SelectPairs with util::Status::Cancelled. Null means "never
  /// cancelled". Selectors also propagate it into `enumerator` so the
  /// exact-EI sweeps it drives honor the same token.
  const std::atomic<bool>* cancel = nullptr;

  /// Optional membership calculator shared across selectors so the lazy
  /// top-k scans run once per (db, k) instead of once per selector. It is
  /// used only when it was built for the same database, the same (clamped)
  /// k, and the database's current mutation_version() — a calculator whose
  /// cached state predates an in-place reweight (DatabaseOverlay) is
  /// stale and a fresh one is built instead.
  std::shared_ptr<const rank::MembershipCalculator> membership;

  /// Optional prebuilt PB-tree reader shared across selectors: either the
  /// immutable base PBTree or a session's DeltaTree (the RankingEngine
  /// maintains the latter via copy-on-write path updates). Used by the
  /// index-based selectors only when it indexes the same database;
  /// otherwise each selector builds its own. The reader must outlive the
  /// selector and already reflect the database's current probabilities;
  /// selectors pin it (TreeReader::Pin) for each traversal.
  const pbtree::TreeReader* shared_tree = nullptr;

  /// options.membership when compatible with (db, k, version), else a
  /// fresh one.
  std::shared_ptr<const rank::MembershipCalculator> MembershipFor(
      const model::Database& db) const;

  /// options.shared_tree when it indexes `db`, else nullptr.
  const pbtree::TreeReader* SharedTreeFor(const model::Database& db) const;
};

/// A selected candidate pair with the selector's improvement estimate.
/// ei_lower/ei_upper carry the Algorithm 5 interval when available
/// (otherwise both equal ei_estimate).
struct ScoredPair {
  model::ObjectId a = model::kInvalidObject;
  model::ObjectId b = model::kInvalidObject;
  double ei_estimate = 0.0;
  double ei_lower = 0.0;
  double ei_upper = 0.0;
};

/// Interface of all pair-selection strategies (Definition 3): pick up to
/// `t` object pairs expected to maximally improve the top-k result quality.
class PairSelector {
 public:
  virtual ~PairSelector() = default;

  /// Selects up to `t` pairs, best first. Implementations are
  /// deterministic given their options (including the seed).
  virtual util::Status SelectPairs(int t, std::vector<ScoredPair>* out) = 0;

  /// Short name used in experiment tables ("BF", "PBTREE", "OPT", ...).
  virtual std::string name() const = 0;
};

/// The selection strategies, named as in the paper's experiment tables
/// (Section 6.2). This is the construction surface consumers use; the
/// concrete selector classes stay available for white-box tests that poke
/// at class internals (modes, stats).
enum class SelectorKind {
  kBruteForce,  // BF
  kPBTree,      // PBTREE (Algorithm 1, Ĥ-ordered)
  kOpt,         // OPT (Algorithm 1, ÊI-ordered)
  kRand,        // RAND
  kRandK,       // RAND_K
  kHrs1,        // HRS1 (multi-quota, relaxed stop rule)
  kHrs2,        // HRS2 (multi-quota, greedy joint objective)
};

/// "BF", "PBTREE", ... — the experiment-table name.
std::string_view SelectorKindName(SelectorKind kind);

/// Inverse of SelectorKindName, case-insensitive ("opt" and "OPT" both
/// resolve); nullopt for unknown names.
std::optional<SelectorKind> SelectorKindFromName(std::string_view name);

/// Every kind, in declaration order — for sweeping experiments and tests.
std::vector<SelectorKind> AllSelectorKinds();

/// The one constructor every consumer (CLI, benches, examples, sessions)
/// goes through: builds the selector of `kind` on `db`, applying the
/// shared options — membership / shared_tree reuse, parallel config, seed
/// — uniformly. `db` must be finalized and outlive the selector.
std::unique_ptr<PairSelector> MakeSelector(const model::Database& db,
                                           SelectorKind kind,
                                           const SelectorOptions& options);

}  // namespace ptk::core

#endif  // PTK_CORE_SELECTOR_H_
