#ifndef PTK_CORE_EI_ESTIMATOR_H_
#define PTK_CORE_EI_ESTIMATOR_H_

#include "core/delta_bounds.h"
#include "model/database.h"
#include "pw/topk_distribution.h"
#include "rank/membership.h"

namespace ptk::core {

/// The bound-based expected-quality-improvement estimate of one candidate
/// pair: EI = H(A(P_1)) - Δ(A(P_1)) (Eq. 11) with Δ replaced by its
/// Algorithm 5 interval.
struct EIEstimate {
  double h_pair = 0.0;  // H(A(P_1)) of Eq. 12 — also an upper bound of EI
  DeltaBounds delta;

  double estimate() const { return h_pair - delta.midpoint(); }
  double lower() const { return h_pair - delta.upper; }
  double upper() const { return h_pair - delta.lower; }
};

/// Computes EIEstimates from the pairwise probability (Eq. 1) and the
/// Algorithm 5 Δ bounds. Shared by the PBTREE / OPT selectors and the
/// multi-quota heuristics.
class EIEstimator {
 public:
  EIEstimator(const model::Database& db,
              const rank::MembershipCalculator& membership,
              pw::OrderMode order)
      : db_(&db), delta_(db, membership, order) {}

  EIEstimate Estimate(model::ObjectId o1, model::ObjectId o2) const;

 private:
  const model::Database* db_;
  DeltaEstimator delta_;
};

}  // namespace ptk::core

#endif  // PTK_CORE_EI_ESTIMATOR_H_
