#include "core/delta_bounds.h"

#include <algorithm>
#include <numeric>
#include <vector>

#include "simd/kernels.h"
#include "util/entropy.h"

namespace ptk::core {

namespace {

using util::EntropyTerm;

// The f(a, b) = h(a) + h(b) - h(a + b) contribution of one group.
double GroupTerm(double a, double b) {
  return EntropyTerm(a) + EntropyTerm(b) - EntropyTerm(a + b);
}

// One side's instance pairs of IP(o1, o2) in sweep order, structure-of-
// arrays so the O(n^2) redistribution inner loop runs on the simd kernels
// with unit stride (DESIGN.md §4.12). mask holds exactly 1.0 where the
// pair's first instance ranks below its second, else exactly 0.0.
struct SweepData {
  std::vector<double> joint;   // P(i1, i2) = p(i1) p(i2)
  std::vector<double> mask;    // i1 < i2 under the instance total order
  std::vector<double> weight;  // PT_k or NPT_k; consumed by the sweep

  void Gather(int n, const int* order, const double* joint_flat,
              const double* mask_flat, const double* weight_flat) {
    joint.resize(n);
    mask.resize(n);
    weight.resize(n);
    for (int r = 0; r < n; ++r) {
      const int p = order[r];
      joint[r] = joint_flat[p];
      mask[r] = mask_flat[p];
      weight[r] = weight_flat[p];
    }
  }
};

// Algorithm 5 body: given the instance pairs sorted in sweep order, the
// upper bound aggregates all weight into one group (valid by concavity of
// binary entropy), and the lower bound redistributes each head pair's
// weight over the remaining pairs proportionally to their joint
// probabilities, accumulating the per-group entropy gap. The tail
// redistribution — the quadratic part — is one sweep_transfer kernel call
// per head pair: transfer_y = (w_x / joint_x) · joint_y, subtracted from
// weight_y in place and totaled per mask side in striped lane order.
DeltaBounds SweepBounds(SweepData& d) {
  const simd::KernelOps& ops = simd::Ops();
  const int n = static_cast<int>(d.joint.size());
  DeltaBounds bounds;
  double total_first = 0.0;   // Σ weight over pairs with i1 < i2
  double total_second = 0.0;  // Σ weight over pairs with i1 > i2
  ops.masked_pair_sums(d.weight.data(), d.mask.data(), n, &total_first,
                       &total_second);
  bounds.upper = GroupTerm(total_first, total_second);

  double lower = 0.0;
  for (int x = 0; x < n; ++x) {
    const double wx = d.weight[x];
    if (wx <= 0.0 || d.joint[x] <= 0.0) continue;
    double from_first = 0.0;
    double from_second = 0.0;
    ops.sweep_transfer(d.joint.data() + x + 1, d.mask.data() + x + 1,
                       d.weight.data() + x + 1, n - x - 1, wx / d.joint[x],
                       &from_first, &from_second);
    const bool first_lower = d.mask[x] != 0.0;
    const double p1 = (first_lower ? wx : 0.0) + from_first;
    const double p2 = (first_lower ? 0.0 : wx) + from_second;
    lower += GroupTerm(p1, p2);
  }
  bounds.lower = std::max(0.0, std::min(lower, bounds.upper));
  return bounds;
}

}  // namespace

DeltaBounds DeltaEstimator::Estimate(model::ObjectId o1,
                                     model::ObjectId o2) const {
  const rank::MembershipCalculator::PairTables tables =
      membership_->ComputePairTables(o1, o2);
  const auto& obj1 = db_->object(o1);
  const auto& obj2 = db_->object(o2);
  const int n1 = obj1.num_instances();
  const int n2 = obj2.num_instances();
  const int n = n1 * n2;

  // Per-pair facts in the flat row-major layout the PairMatrix tables
  // already use (pair p = a·n2 + b), so each side's weights gather
  // straight out of tables.pt/npt.data().
  std::vector<model::Position> pos2s(n2);
  for (const model::Instance& i2 : obj2.instances()) {
    pos2s[i2.iid] = db_->PositionOf({i2.oid, i2.iid});
  }
  std::vector<double> joint(n), mask(n);
  std::vector<model::Position> max_pos(n), min_pos(n);
  for (const model::Instance& i1 : obj1.instances()) {
    const model::Position pos1 = db_->PositionOf({i1.oid, i1.iid});
    const int row = i1.iid * n2;
    for (const model::Instance& i2 : obj2.instances()) {
      const int p = row + i2.iid;
      const model::Position pos2 = pos2s[i2.iid];
      joint[p] = i1.prob * i2.prob;
      mask[p] = (pos1 < pos2) ? 1.0 : 0.0;
      max_pos[p] = std::max(pos1, pos2);
      min_pos[p] = std::min(pos1, pos2);
    }
  }

  // Δ_∅ sweeps ascending min position; Δ_{1,2} descending max position.
  // Ties break by pair index, making the sweep order (and thus the exact
  // floating-point result) independent of the sort implementation.
  std::vector<int> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    if (min_pos[a] != min_pos[b]) return min_pos[a] < min_pos[b];
    return a < b;
  });
  SweepData side;
  side.Gather(n, order.data(), joint.data(), mask.data(),
              tables.npt.data());
  const DeltaBounds empty_side = SweepBounds(side);
  if (order_ == pw::OrderMode::kSensitive) {
    // Only S_∅ contributes (Section 4.5).
    return empty_side;
  }

  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    if (max_pos[a] != max_pos[b]) return max_pos[a] > max_pos[b];
    return a < b;
  });
  side.Gather(n, order.data(), joint.data(), mask.data(),
              tables.pt.data());
  const DeltaBounds both_side = SweepBounds(side);
  return DeltaBounds{both_side.lower + empty_side.lower,
                     both_side.upper + empty_side.upper};
}

}  // namespace ptk::core
