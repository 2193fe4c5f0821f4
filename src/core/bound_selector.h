#ifndef PTK_CORE_BOUND_SELECTOR_H_
#define PTK_CORE_BOUND_SELECTOR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/ei_estimator.h"
#include "core/selector.h"
#include "pbtree/pair_stream.h"
#include "pbtree/pbtree.h"
#include "rank/membership.h"

namespace ptk::core {

/// The index-based selection algorithms of Section 4: streams object pairs
/// from the PB-tree in descending score order (Algorithms 1-3), estimates
/// each pair's EI with the Algorithm 5 Δ bounds, and stops once no
/// remaining pair can beat the current best (for t = 1) or the t-th best
/// (the paper's HRS1 stop rule).
///
/// kBasic is the paper's PBTREE (node pairs ranked by Ĥ, Eq. 16); kOptimized
/// is OPT (node pairs ranked by ÊI, Eq. 18, Section 4.4).
///
/// Δ bounds are evaluated inline, one popped pair at a time, on the
/// calling thread: OPT evaluates a few dozen pairs per selection, fewer
/// than a thread-pool round trip would pay for, so options.parallel is
/// not used. Pairs come out by descending estimate, equal estimates by
/// ascending (a, b).
class BoundSelector : public PairSelector {
 public:
  enum class Mode { kBasic, kOptimized };

  BoundSelector(const model::Database& db, const SelectorOptions& options,
                Mode mode);

  util::Status SelectPairs(int t, std::vector<ScoredPair>* out) override;
  std::string name() const override {
    return mode_ == Mode::kBasic ? "PBTREE" : "OPT";
  }

  /// Counters from the most recent SelectPairs call (Figs. 12-13).
  struct Stats {
    int64_t pairs_evaluated = 0;  // Δ-bound computations
    pbtree::PairStream::Stats stream;
  };
  const Stats& stats() const { return stats_; }

  const pbtree::TreeReader& tree() const { return *tree_; }
  const rank::MembershipCalculator& membership() const {
    return *membership_;
  }
  const EIEstimator& estimator() const { return estimator_; }

 private:
  const model::Database* db_;
  SelectorOptions options_;
  Mode mode_;
  // Owned only when options.shared_tree is absent or indexes a different
  // database; the RankingEngine path shares its base tree / per-session
  // delta tree instead of re-indexing per selector.
  std::unique_ptr<pbtree::PBTree> owned_tree_;
  const pbtree::TreeReader* tree_;
  // Shared across this selector's estimator and scorer (and, via
  // SelectorOptions::membership, across selectors), so each lazy top-k
  // scan runs once.
  std::shared_ptr<const rank::MembershipCalculator> membership_;
  EIEstimator estimator_;
  pbtree::HEntropyScorer h_scorer_;
  pbtree::EIScorer ei_scorer_;
  Stats stats_;
};

}  // namespace ptk::core

#endif  // PTK_CORE_BOUND_SELECTOR_H_
