#include "core/bound_selector.h"

#include <algorithm>
#include <queue>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/cancellation.h"

namespace ptk::core {

namespace {

pbtree::PBTree::Options TreeOptions(const SelectorOptions& options) {
  pbtree::PBTree::Options tree_options;
  tree_options.fanout = options.fanout;
  return tree_options;
}

struct BoundSelectorMetrics {
  obs::Counter* pairs_evaluated;
  obs::Counter* prunes;
  obs::Counter* node_pairs_expanded;
  obs::Counter* object_pairs_scored;
  obs::Histogram* ei_sweep_seconds;

  static const BoundSelectorMetrics& Get() {
    static const BoundSelectorMetrics metrics = {
        obs::GetCounter("ptk_selector_pairs_evaluated_total",
                        "Candidate pairs whose EI was computed"),
        obs::GetCounter("ptk_selector_delta_prunes_total",
                        "Candidate pairs skipped by the Δ-bound threshold"),
        obs::GetCounter("ptk_selector_node_pairs_expanded_total",
                        "PB-tree node pairs the pair stream expanded"),
        obs::GetCounter("ptk_selector_object_pairs_scored_total",
                        "Object pairs the pair stream scored by H(A(P_1))"),
        obs::GetHistogram("ptk_selector_ei_sweep_seconds",
                          "Latency of one EI evaluation step: one pair's Δ "
                          "bounds (PBTREE/OPT), one exact sweep (BF)"),
    };
    return metrics;
  }
};

// Selection order: larger estimate first, equal estimates by ascending
// (a, b), so tied picks come out the same whatever the heap's history.
struct RanksBefore {
  bool operator()(const ScoredPair& x, const ScoredPair& y) const {
    if (x.ei_estimate != y.ei_estimate) return x.ei_estimate > y.ei_estimate;
    return std::pair(x.a, x.b) < std::pair(y.a, y.b);
  }
};

}  // namespace

BoundSelector::BoundSelector(const model::Database& db,
                             const SelectorOptions& options, Mode mode)
    : db_(&db),
      options_(options),
      mode_(mode),
      owned_tree_(options.SharedTreeFor(db) == nullptr
                      ? std::make_unique<pbtree::PBTree>(db, TreeOptions(options))
                      : nullptr),
      tree_(owned_tree_ != nullptr ? owned_tree_.get()
                                   : options.SharedTreeFor(db)),
      membership_(options.MembershipFor(db)),
      estimator_(db, *membership_, options.order),
      h_scorer_(db),
      ei_scorer_(db, *membership_, options.order) {}

util::Status BoundSelector::SelectPairs(int t, std::vector<ScoredPair>* out) {
  const BoundSelectorMetrics& metrics = BoundSelectorMetrics::Get();
  obs::Span span(name() == "OPT" ? "BoundSelector::SelectPairs(OPT)"
                                 : "BoundSelector::SelectPairs(PBTREE)");
  stats_ = Stats();
  const pbtree::PairScorer& scorer =
      (mode_ == Mode::kBasic)
          ? static_cast<const pbtree::PairScorer&>(h_scorer_)
          : static_cast<const pbtree::PairScorer&>(ei_scorer_);
  // The pin (epoch guard for delta trees) must outlive the stream: every
  // node the stream's heaps reference stays allocated until it drops.
  const pbtree::TreeReader::Pinned pinned = tree_->Pin();
  pbtree::PairStream stream(pinned.root, scorer);

  // The best t estimates so far, the one ranked last on top.
  std::priority_queue<ScoredPair, std::vector<ScoredPair>, RanksBefore> best;
  double threshold = -1.0;  // t-th best EI estimate once `best` is full

  // Algorithm 1, one candidate at a time. pair->score is H(A(P_1)), an
  // upper bound of the pair's EI.
  for (;;) {
    if (util::CancelRequested(options_.cancel)) {
      return util::Status::Cancelled(name() + " selection cancelled");
    }
    const bool full = static_cast<int>(best.size()) >= t;
    // Algorithm 1 line 8: nothing left can beat the t-th best.
    if (full && stream.RemainingUpperBound() <= threshold) break;
    const auto pair = stream.Next();
    if (!pair) break;
    // Algorithm 1 line 5.
    if (full && pair->score <= threshold) {
      metrics.prunes->Add();
      continue;
    }
    EIEstimate est;
    {
      obs::ScopedTimer sweep_timer(metrics.ei_sweep_seconds);
      est = estimator_.Estimate(pair->a, pair->b);
    }
    ++stats_.pairs_evaluated;
    metrics.pairs_evaluated->Add();
    best.push(ScoredPair{pair->a, pair->b, est.estimate(), est.lower(),
                         est.upper()});
    if (static_cast<int>(best.size()) > t) best.pop();
    if (static_cast<int>(best.size()) >= t) {
      threshold = best.top().ei_estimate;
    }
  }
  stats_.stream = stream.stats();
  metrics.node_pairs_expanded->Add(stats_.stream.node_pairs_expanded);
  metrics.object_pairs_scored->Add(stats_.stream.object_pairs_scored);

  std::vector<ScoredPair> selected;
  selected.reserve(best.size());
  while (!best.empty()) {
    selected.push_back(best.top());
    best.pop();
  }
  std::reverse(selected.begin(), selected.end());  // best first
  *out = std::move(selected);
  return util::Status::OK();
}

}  // namespace ptk::core
