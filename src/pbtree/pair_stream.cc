#include "pbtree/pair_stream.h"

#include <algorithm>
#include <limits>

#include "rank/pairwise_prob.h"
#include "util/entropy.h"

namespace ptk::pbtree {

namespace {

// Theorem 1 probability interval for any objects o1 under n1 and o2 under
// n2: P(o1 > o2) ∈ [P(n1.lbo > n2.ubo), P(n1.ubo > n2.lbo)], with tie
// policies keeping the interval conservative under shared source values.
std::pair<double, double> TheoremOneInterval(const Node& n1, const Node& n2) {
  const double lo = rank::ProbGreaterValues(
      n1.lbo.instances(), n2.ubo.instances(), rank::TiePolicy::kTiesLose);
  const double hi = rank::ProbGreaterValues(
      n1.ubo.instances(), n2.lbo.instances(), rank::TiePolicy::kTiesWin);
  return {std::min(lo, hi), std::max(lo, hi)};
}

}  // namespace

double HEntropyScorer::NodePairUpper(const Node& n1, const Node& n2) const {
  const auto [lo, hi] = TheoremOneInterval(n1, n2);
  return util::BinaryEntropyIntervalMax(lo, hi);
}

double HEntropyScorer::ObjectPairScore(model::ObjectId a,
                                       model::ObjectId b) const {
  const double p = rank::ProbGreater(db_->object(a), db_->object(b));
  return util::BinaryEntropy(p);
}

double EIScorer::NodePairUpper(const Node& n1, const Node& n2) const {
  const double h_hat = base_.NodePairUpper(n1, n2);
  if (h_hat <= 0.0) return 0.0;
  // Pr(both objects in the top-k | instances chosen) is smallest at the
  // largest instances under the nodes (the sources of the largest ubo
  // instances); Pr(neither in the top-k | chosen) is smallest at the
  // smallest instances (sources of the smallest lbo instances). Their sum
  // lower-bounds the probability that the comparison outcome cannot change
  // the (order-insensitive) result, hence the Eq. 18 tightening.
  const bool insensitive = order_ == pw::OrderMode::kInsensitive;
  double both = 0.0;
  double neither = 0.0;
  if (&n1 == &n2) {
    // A diagonal pair's extreme sources may be one object, which the
    // per-instance conditionals cannot exclude twice; bound the node's
    // whole value span instead.
    const rank::MembershipCalculator::PairConditionals span =
        membership_->SpanPairMembership(n1.lbo.instances().front().value,
                                        n1.ubo.instances().back().value);
    if (insensitive) both = span.both;
    neither = span.neither;
  } else {
    if (insensitive) {
      both = membership_
                 ->ConditionalPairMembership(n1.ubo.LargestSource(),
                                             n2.ubo.LargestSource())
                 .both;
    }
    neither = membership_
                  ->ConditionalPairMembership(n1.lbo.SmallestSource(),
                                              n2.lbo.SmallestSource())
                  .neither;
  }
  const double factor = std::max(0.0, 1.0 - both - neither);
  // Small additive slack guards the pruning against the floating-point
  // error of the membership scan.
  return h_hat * factor + 1e-9;
}

PairStream::PairStream(const PBTree& tree, const PairScorer& scorer)
    : PairStream(tree.root(), scorer) {}

PairStream::PairStream(const Node* root, const PairScorer& scorer)
    : scorer_(&scorer) {
  node_heap_.push(
      NodeEntry{root, root, scorer_->NodePairUpper(*root, *root)});
  stats_.node_pairs_pushed = 1;
}

void PairStream::ExpandNodePair(const Node* n1, const Node* n2) {
  ++stats_.node_pairs_expanded;
  if (n1->leaf) {
    // Emit object pairs (deduplicated: subtree object sets are disjoint,
    // and for the self pair only i < j combinations are generated).
    const auto& o1 = n1->objects;
    const auto& o2 = n2->objects;
    for (size_t i = 0; i < o1.size(); ++i) {
      const size_t j_begin = (n1 == n2) ? i + 1 : 0;
      for (size_t j = j_begin; j < o2.size(); ++j) {
        const double score = scorer_->ObjectPairScore(o1[i], o2[j]);
        ++stats_.object_pairs_scored;
        pair_heap_.push(PairEntry{ScoredObjectPair{o1[i], o2[j], score}});
      }
    }
    return;
  }
  const auto& c1 = n1->children;
  const auto& c2 = n2->children;
  for (size_t i = 0; i < c1.size(); ++i) {
    const size_t j_begin = (n1 == n2) ? i : 0;
    for (size_t j = j_begin; j < c2.size(); ++j) {
      node_heap_.push(NodeEntry{
          c1[i], c2[j],
          scorer_->NodePairUpper(*c1[i], *c2[j])});
      ++stats_.node_pairs_pushed;
    }
  }
}

std::optional<ScoredObjectPair> PairStream::Next() {
  while (true) {
    if (node_heap_.empty()) {
      if (pair_heap_.empty()) return std::nullopt;
      const ScoredObjectPair out = pair_heap_.top().pair;
      pair_heap_.pop();
      ++stats_.object_pairs_emitted;
      return out;
    }
    if (!pair_heap_.empty() &&
        pair_heap_.top().pair.score >= node_heap_.top().upper) {
      const ScoredObjectPair out = pair_heap_.top().pair;
      pair_heap_.pop();
      ++stats_.object_pairs_emitted;
      return out;
    }
    const NodeEntry top = node_heap_.top();
    node_heap_.pop();
    ExpandNodePair(top.n1, top.n2);
  }
}

double PairStream::RemainingUpperBound() const {
  double upper = -std::numeric_limits<double>::infinity();
  if (!node_heap_.empty()) upper = std::max(upper, node_heap_.top().upper);
  if (!pair_heap_.empty()) {
    upper = std::max(upper, pair_heap_.top().pair.score);
  }
  return upper;
}

}  // namespace ptk::pbtree
