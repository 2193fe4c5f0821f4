#ifndef PTK_CORE_DELTA_BOUNDS_H_
#define PTK_CORE_DELTA_BOUNDS_H_

#include "model/database.h"
#include "pw/topk_distribution.h"
#include "rank/membership.h"

namespace ptk::core {

/// Lower / upper bounds of Δ(A(P_1)) = H(S_k, A(P_1)) - H(S_k) for one
/// candidate pair (Section 4.2). The selector uses the midpoint as the
/// paper's "arbitrary value within the bounds" approximation.
struct DeltaBounds {
  double lower = 0.0;
  double upper = 0.0;

  double midpoint() const { return 0.5 * (lower + upper); }
  double deviation() const { return upper - lower; }
};

/// Algorithm 5: bound Δ(A(P_1)) without enumerating S_k, using only the
/// pair's joint top-k membership tables. Order-insensitive Δ sums the
/// contributions of result sets containing both objects (Δ_{1,2}, driven by
/// PT_k) and of sets containing neither (Δ_∅, driven by NPT_k);
/// order-sensitive Δ reduces to Δ_∅ alone (Section 4.5).
class DeltaEstimator {
 public:
  DeltaEstimator(const model::Database& db,
                 const rank::MembershipCalculator& membership,
                 pw::OrderMode order)
      : db_(&db), membership_(&membership), order_(order) {}

  DeltaBounds Estimate(model::ObjectId o1, model::ObjectId o2) const;

 private:
  const model::Database* db_;
  const rank::MembershipCalculator* membership_;
  pw::OrderMode order_;
};

}  // namespace ptk::core

#endif  // PTK_CORE_DELTA_BOUNDS_H_
