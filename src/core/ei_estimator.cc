#include "core/ei_estimator.h"

#include "rank/pairwise_prob.h"
#include "util/entropy.h"

namespace ptk::core {

EIEstimate EIEstimator::Estimate(model::ObjectId o1,
                                 model::ObjectId o2) const {
  EIEstimate out;
  const double p = rank::ProbGreater(db_->object(o1), db_->object(o2));
  out.h_pair = util::BinaryEntropy(p);
  out.delta = delta_.Estimate(o1, o2);
  return out;
}

}  // namespace ptk::core
