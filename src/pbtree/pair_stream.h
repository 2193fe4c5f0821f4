#ifndef PTK_PBTREE_PAIR_STREAM_H_
#define PTK_PBTREE_PAIR_STREAM_H_

#include <cstdint>
#include <optional>
#include <queue>
#include <vector>

#include "model/database.h"
#include "pbtree/pbtree.h"
#include "pw/topk_distribution.h"
#include "rank/membership.h"

namespace ptk::pbtree {

/// Scores that drive the pair stream's heaps. NodePairUpper must upper
/// bound ObjectPairScore (and, for pruning-oriented scorers like ÊI, the
/// expected quality improvement) of every object pair under the node pair.
class PairScorer {
 public:
  virtual ~PairScorer() = default;

  /// Upper bound for all object pairs beneath (n1, n2).
  virtual double NodePairUpper(const Node& n1, const Node& n2) const = 0;

  /// Score of a concrete object pair; for both built-in scorers this is
  /// H(A(P_1)) of Eq. 12, itself an upper bound of the pair's EI.
  virtual double ObjectPairScore(model::ObjectId a,
                                 model::ObjectId b) const = 0;
};

/// The basic scorer (Section 4.1): Ĥ(n1, n2) from the Theorem 1 interval
/// [P̌, P̂] via the interval-correct Eq. 16, and H(A(P_1)) for pairs.
class HEntropyScorer : public PairScorer {
 public:
  explicit HEntropyScorer(const model::Database& db) : db_(&db) {}

  double NodePairUpper(const Node& n1, const Node& n2) const override;
  double ObjectPairScore(model::ObjectId a,
                         model::ObjectId b) const override;

 private:
  const model::Database* db_;
};

/// The optimized scorer (Section 4.4, Theorem 4): tightens Ĥ with the
/// probability that the comparison cannot affect the top-k result —
/// both objects surely in it (order-insensitive only) or surely out of it —
/// estimated at the extreme bound-instance sources via the membership
/// calculator, or for a diagonal pair (n, n) over n's whole value span
/// (MembershipCalculator::SpanPairMembership).
class EIScorer : public PairScorer {
 public:
  EIScorer(const model::Database& db,
           const rank::MembershipCalculator& membership, pw::OrderMode order)
      : base_(db), membership_(&membership), order_(order) {}

  double NodePairUpper(const Node& n1, const Node& n2) const override;
  double ObjectPairScore(model::ObjectId a,
                         model::ObjectId b) const override {
    return base_.ObjectPairScore(a, b);
  }

 private:
  HEntropyScorer base_;
  const rank::MembershipCalculator* membership_;
  pw::OrderMode order_;
};

struct ScoredObjectPair {
  model::ObjectId a = model::kInvalidObject;
  model::ObjectId b = model::kInvalidObject;
  double score = 0.0;  // ObjectPairScore (H(A(P_1)))
};

/// Streams object pairs per Algorithms 2-3: two max-heaps, NP over node
/// pairs keyed by NodePairUpper and OP over object pairs keyed by
/// ObjectPairScore; a pair is emitted once its score is at least the best
/// remaining node-pair upper bound, so emission order is exactly
/// descending ObjectPairScore whenever NodePairUpper is admissible for it.
class PairStream {
 public:
  PairStream(const PBTree& tree, const PairScorer& scorer);

  /// Streams over a pinned root (TreeReader::Pin) — the caller must keep
  /// the pin's guard alive for the stream's lifetime.
  PairStream(const Node* root, const PairScorer& scorer);

  /// Next pair, or nullopt when the pair space is exhausted.
  std::optional<ScoredObjectPair> Next();

  /// Upper bound on the score/EI of every pair not yet emitted; -inf when
  /// exhausted. Selection loops stop once this drops below their current
  /// best improvement (Algorithm 1 line 8).
  double RemainingUpperBound() const;

  struct Stats {
    int64_t node_pairs_expanded = 0;
    int64_t node_pairs_pushed = 0;
    int64_t object_pairs_scored = 0;
    int64_t object_pairs_emitted = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  struct NodeEntry {
    const Node* n1;
    const Node* n2;
    double upper;
    bool operator<(const NodeEntry& other) const {
      return upper < other.upper;  // max-heap
    }
  };
  struct PairEntry {
    ScoredObjectPair pair;
    bool operator<(const PairEntry& other) const {
      return pair.score < other.pair.score;  // max-heap
    }
  };

  void ExpandNodePair(const Node* n1, const Node* n2);

  const PairScorer* scorer_;
  std::priority_queue<NodeEntry> node_heap_;
  std::priority_queue<PairEntry> pair_heap_;
  Stats stats_;
};

}  // namespace ptk::pbtree

#endif  // PTK_PBTREE_PAIR_STREAM_H_
