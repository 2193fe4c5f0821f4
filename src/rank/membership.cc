#include "rank/membership.h"

#include <algorithm>
#include <cassert>

#include "obs/metrics.h"
#include "rank/poisson_binomial.h"

namespace ptk::rank {

MembershipCalculator::MembershipCalculator(const model::Database& db, int k)
    : db_(&db),
      k_(std::clamp(k, 1, db.num_objects())),
      db_version_(db.mutation_version()) {
  assert(db.finalized());
  // Exact per-object prefix masses, indexed by (oid, iid). prefix_ has one
  // extra slot per object so PrefixMass(oid, num_instances) == 1 exactly,
  // which is what the certain-below (shift) transition relies on.
  flat_offset_.resize(db.num_objects());
  int total = 0;
  for (int o = 0; o < db.num_objects(); ++o) {
    flat_offset_[o] = total;
    total += db.object(o).num_instances() + 1;
  }
  prefix_.assign(total, 0.0);
  for (int o = 0; o < db.num_objects(); ++o) FillPrefixColumn(o);
}

MembershipCalculator::MembershipCalculator(
    std::shared_ptr<const MembershipCalculator> base,
    const model::Database& delta_db)
    : db_(&delta_db),
      k_(base->k_),
      db_version_(delta_db.mutation_version()),
      base_calc_(std::move(base)) {
  assert(delta_db.is_delta());
  assert(base_calc_->base_calc_ == nullptr);
  assert(delta_db.delta_base() == &base_calc_->db());
  // Columns for overrides the delta already carries (e.g. after a snapshot
  // restore); later folds arrive through RefreshObjects as usual.
  for (model::ObjectId oid : delta_db.OverriddenObjects()) {
    FillPrefixColumn(oid);
  }
}

void MembershipCalculator::FillPrefixColumn(model::ObjectId oid) {
  const auto& insts = db_->object(oid).instances();
  if (base_calc_ != nullptr) {
    auto& column = prefix_over_[oid];
    column.assign(insts.size() + 1, 0.0);
    double acc = 0.0;
    for (size_t i = 0; i < insts.size(); ++i) {
      column[i] = acc;
      acc += insts[i].prob;
    }
    column[insts.size()] = 1.0;
    return;
  }
  double acc = 0.0;
  for (size_t i = 0; i < insts.size(); ++i) {
    prefix_[flat_offset_[oid] + i] = acc;
    acc += insts[i].prob;
  }
  // The final slot is exactly 1: the object certainly ranks below any
  // point past its last instance.
  prefix_[flat_offset_[oid] + insts.size()] = 1.0;
}

int64_t MembershipCalculator::DeltaBytes() const {
  if (base_calc_ == nullptr) return 0;
  int64_t bytes = 0;
  for (const auto& [oid, column] : prefix_over_) {
    bytes += static_cast<int64_t>(column.capacity() * sizeof(double)) + 64;
  }
  bytes += static_cast<int64_t>(pt_single_.capacity() * sizeof(double));
  return bytes;
}

void MembershipCalculator::RefreshObjects(
    std::span<const model::ObjectId> objects) {
  static obs::Counter* const refreshes =
      obs::GetCounter("ptk_membership_object_refreshes_total",
                      "Per-object prefix-column refreshes after folds");
  for (model::ObjectId oid : objects) FillPrefixColumn(oid);
  refreshes->Add(static_cast<int64_t>(objects.size()));
  singles_ready_.store(false, std::memory_order_release);
  db_version_ = db_->mutation_version();
}

void MembershipCalculator::ScanPositions(
    std::span<const model::ObjectId> excluded,
    std::vector<PositionQuery>& queries) const {
  assert(std::is_sorted(queries.begin(), queries.end(),
                        [](const PositionQuery& a, const PositionQuery& b) {
                          return a.pos < b.pos;
                        }));
  // The scan reads instance identities and values from the sorted index
  // (shared with the base in delta mode) and probabilities exclusively
  // through PrefixMass, which resolves overrides.
  const auto& sorted = index_db().sorted_instances();
  PoissonBinomialTracker tracker;
  size_t qi = 0;
  const model::Position last_pos =
      queries.empty() ? -1 : queries.back().pos;
  for (model::Position pos = 0;
       pos <= last_pos && pos < static_cast<model::Position>(sorted.size());
       ++pos) {
    // Answer queries at this position from the strictly-below state.
    while (qi < queries.size() && queries[qi].pos == pos) {
      queries[qi].ple_km2 =
          (k_ >= 2) ? tracker.CumulativeAtMost(k_ - 2) : 0.0;
      queries[qi].ple_km1 = tracker.CumulativeAtMost(k_ - 1);
      ++qi;
    }
    if (tracker.shift() >= k_) break;  // all later memberships are zero
    const model::Instance& inst = sorted[pos];
    bool skip = false;
    for (model::ObjectId e : excluded) skip |= (inst.oid == e);
    if (skip) continue;
    const double q_old = PrefixMass(inst.oid, inst.iid);
    const double q_new = PrefixMass(inst.oid, inst.iid + 1);
    // Zero-mass instances (possible in DatabaseOverlay working databases)
    // leave their object's below-mass Bernoulli unchanged: skipping the
    // update is exact, and bitwise identical to a database without them.
    if (q_new > q_old) tracker.Update(q_old, q_new);
  }
  // Saturated or exhausted: every remaining query is exactly zero.
  for (; qi < queries.size(); ++qi) {
    queries[qi].ple_km2 = 0.0;
    queries[qi].ple_km1 = 0.0;
  }
}

void MembershipCalculator::EnsureSingles() const {
  if (singles_ready_.load(std::memory_order_acquire)) return;
  std::lock_guard<std::mutex> lock(singles_mutex_);
  if (singles_ready_.load(std::memory_order_relaxed)) return;
  BuildSingles();
  singles_ready_.store(true, std::memory_order_release);
}

void MembershipCalculator::BuildSingles() const {
  static obs::Counter* const builds =
      obs::GetCounter("ptk_membership_table_builds_total",
                      "Full single-object membership table (re)builds");
  builds->Add();
  pt_single_.assign(flat_size(), 0.0);
  const auto& sorted = index_db().sorted_instances();
  PoissonBinomialTracker tracker;
  for (model::Position pos = 0;
       pos < static_cast<model::Position>(sorted.size()); ++pos) {
    if (tracker.shift() >= k_) break;  // all later PT values are zero
    const model::Instance& inst = sorted[pos];
    const double q_old = PrefixMass(inst.oid, inst.iid);
    // Exclude the owner from the "others below" count: its own below-mass
    // Bernoulli (q_old) is deconvolved at query time.
    const double others_le =
        tracker.CumulativeAtMostExcluding(k_ - 1, q_old);
    // inst.prob comes from the shared index in delta mode; the live value
    // lives in the delta's override (bitwise equal in base mode — the
    // reweight writes the same double into both stores).
    const double prob = db_->object(inst.oid).instance(inst.iid).prob;
    pt_single_[flat_offset(inst.oid) + inst.iid] = prob * others_le;
    const double q_new = PrefixMass(inst.oid, inst.iid + 1);
    if (q_new > q_old) tracker.Update(q_old, q_new);  // zero-mass: no-op
  }
}

const std::vector<double>& MembershipCalculator::ExportWarmSingles() const {
  EnsureSingles();
  return pt_single_;
}

bool MembershipCalculator::ImportWarmSingles(std::span<const double> singles) {
  if (singles.size() != flat_size()) return false;
  std::lock_guard<std::mutex> lock(singles_mutex_);
  pt_single_.assign(singles.begin(), singles.end());
  singles_ready_.store(true, std::memory_order_release);
  return true;
}

double MembershipCalculator::TopKProbability(model::InstanceRef ref) const {
  EnsureSingles();
  return pt_single_[flat_offset(ref.oid) + ref.iid];
}

double MembershipCalculator::ObjectTopKProbability(
    model::ObjectId oid) const {
  EnsureSingles();
  const int n = db_->object(oid).num_instances();
  double total = 0.0;
  for (int i = 0; i < n; ++i) total += pt_single_[flat_offset(oid) + i];
  return total;
}

MembershipCalculator::PairTables MembershipCalculator::ComputePairTables(
    model::ObjectId o1, model::ObjectId o2) const {
  assert(o1 != o2);
  const auto& obj1 = db_->object(o1);
  const auto& obj2 = db_->object(o2);

  // One query per instance of either object, at that instance's global
  // position, with both objects excluded from the count.
  std::vector<PositionQuery> queries;
  queries.reserve(obj1.num_instances() + obj2.num_instances());
  for (const model::Instance& i : obj1.instances()) {
    queries.push_back({db_->PositionOf({i.oid, i.iid}), 0.0, 0.0});
  }
  for (const model::Instance& i : obj2.instances()) {
    queries.push_back({db_->PositionOf({i.oid, i.iid}), 0.0, 0.0});
  }
  std::sort(queries.begin(), queries.end(),
            [](const PositionQuery& a, const PositionQuery& b) {
              return a.pos < b.pos;
            });
  const model::ObjectId excluded[] = {o1, o2};
  ScanPositions(excluded, queries);

  // Index the answers back by position.
  auto find = [&queries](model::Position pos) -> const PositionQuery& {
    const auto it = std::lower_bound(
        queries.begin(), queries.end(), pos,
        [](const PositionQuery& q, model::Position p) { return q.pos < p; });
    return *it;
  };

  PairTables tables;
  tables.pt = PairMatrix(obj1.num_instances(), obj2.num_instances());
  tables.npt = PairMatrix(obj1.num_instances(), obj2.num_instances());
  for (const model::Instance& i1 : obj1.instances()) {
    double* const pt_row = tables.pt[i1.iid];
    double* const npt_row = tables.npt[i1.iid];
    for (const model::Instance& i2 : obj2.instances()) {
      const bool i1_lower = model::InstanceLess(i1, i2);
      const model::Instance& lo = i1_lower ? i1 : i2;
      const model::Instance& hi = i1_lower ? i2 : i1;
      const PositionQuery& at_hi = find(db_->PositionOf({hi.oid, hi.iid}));
      const PositionQuery& at_lo = find(db_->PositionOf({lo.oid, lo.iid}));
      const double joint = i1.prob * i2.prob;
      // Both in top-k: the lower instance is free; the higher one needs at
      // most k-2 other objects above it (the lower occupies one slot).
      pt_row[i2.iid] = joint * at_hi.ple_km2;
      // Neither in top-k: the lower instance must already be pushed out,
      // i.e., at least k other objects rank above it.
      npt_row[i2.iid] = joint * (1.0 - at_lo.ple_km1);
    }
  }
  return tables;
}

MembershipCalculator::PairConditionals
MembershipCalculator::ConditionalPairMembership(model::InstanceRef a,
                                                model::InstanceRef b) const {
  if (a.oid == b.oid) return {};
  const model::Instance& ia = db_->instance(a);
  const model::Instance& ib = db_->instance(b);
  const bool a_lower = model::InstanceLess(ia, ib);
  const model::Position lo_pos = db_->PositionOf(a_lower ? a : b);
  const model::Position hi_pos = db_->PositionOf(a_lower ? b : a);

  std::vector<PositionQuery> queries{{lo_pos, 0.0, 0.0}, {hi_pos, 0.0, 0.0}};
  if (queries[0].pos > queries[1].pos) std::swap(queries[0], queries[1]);
  const model::ObjectId excluded[] = {a.oid, b.oid};
  ScanPositions(excluded, queries);

  const PositionQuery& at_lo =
      (queries[0].pos == lo_pos) ? queries[0] : queries[1];
  const PositionQuery& at_hi =
      (queries[0].pos == hi_pos) ? queries[0] : queries[1];
  PairConditionals out;
  out.both = at_hi.ple_km2;
  out.neither = 1.0 - at_lo.ple_km1;
  return out;
}

MembershipCalculator::PairConditionals
MembershipCalculator::SpanPairMembership(double lo_value,
                                         double hi_value) const {
  assert(lo_value <= hi_value);
  const auto& sorted = index_db().sorted_instances();
  const auto below = [](const model::Instance& i, double v) {
    return i.value < v;
  };
  const auto above = [](double v, const model::Instance& i) {
    return v < i.value;
  };
  const auto first =
      std::lower_bound(sorted.begin(), sorted.end(), lo_value, below);
  const auto past_last =
      std::upper_bound(first, sorted.end(), hi_value, above);
  assert(first < past_last);
  std::vector<PositionQuery> queries{
      {static_cast<model::Position>(first - sorted.begin()), 0.0, 0.0},
      {static_cast<model::Position>(past_last - sorted.begin()) - 1, 0.0,
       0.0}};
  ScanPositions({}, queries);
  PairConditionals out;
  out.both = queries[1].ple_km2;
  out.neither = 1.0 - queries[0].ple_km1;
  return out;
}

}  // namespace ptk::rank
