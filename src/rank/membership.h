#ifndef PTK_RANK_MEMBERSHIP_H_
#define PTK_RANK_MEMBERSHIP_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "model/database.h"
#include "model/instance.h"

namespace ptk::rank {

/// Dense row-major matrix of pair probabilities. Flat single-allocation
/// storage (replacing a ragged vector<vector<double>>): rows are
/// contiguous and unit-stride, which is what lets the Δ-bound estimator
/// gather a pair table straight into its SoA sweep arrays (DESIGN.md
/// §4.12). operator[] returns a row pointer, so m[r][c] indexing reads
/// the same as the ragged form it replaced.
class PairMatrix {
 public:
  PairMatrix() = default;
  PairMatrix(int rows, int cols)
      : rows_(rows),
        cols_(cols),
        data_(static_cast<size_t>(rows) * static_cast<size_t>(cols), 0.0) {}

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  size_t size() const { return data_.size(); }

  double* operator[](int row) {
    return data_.data() + static_cast<size_t>(row) * cols_;
  }
  const double* operator[](int row) const {
    return data_.data() + static_cast<size_t>(row) * cols_;
  }

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

  friend bool operator==(const PairMatrix&, const PairMatrix&) = default;

 private:
  int rows_ = 0;
  int cols_ = 0;
  std::vector<double> data_;
};

/// Top-k membership probabilities under possible-world semantics
/// (Section 4.2, building on the Poisson-binomial DP of Bernecker et al.
/// [4]):
///
///   PT_k(i)        probability that instance i exists and its object ranks
///                  within the top-k;
///   PT_k(i1,i2)    joint probability that both instances exist and both
///                  objects rank within the top-k;
///   NPT_k(i1,i2)   joint probability that both exist and neither object
///                  ranks within the top-k.
///
/// All quantities are exact: every scan maintains the full Poisson-binomial
/// vector over the active objects so deconvolutions always run in their
/// stable direction, and the pair scans never add the pair's own objects.
/// Scans terminate early once k objects are certainly ranked above the scan
/// point (all later memberships are exactly zero), which makes the cost
/// depend on k and data density rather than on database size.
///
/// Thread safety: all const methods are safe to call concurrently. The
/// lazily-built singles table is initialized behind a mutex (and rebuilt
/// after a RefreshObjects invalidation); every other scan works on
/// per-call local state. One calculator is therefore meant to be shared
/// across selectors and worker threads (see SelectorOptions::membership).
/// RefreshObjects itself must not race with queries — it is the engine's
/// single-writer maintenance hook, not a concurrent entry point.
/// Delta mode: a calculator can also be built *over* a shared base
/// calculator for a delta database (Database::MakeDelta). It then stores
/// prefix-mass columns only for the delta's overridden objects — memory
/// O(answers folded) — and resolves every other column against the base
/// calculator, whose tables are immutable and safely shared by any number
/// of sessions. Scans iterate the base database's sorted index (values and
/// order are shared verbatim) while probabilities resolve through the
/// delta, so every answer is bitwise identical to a calculator built from
/// scratch on a full working copy. The lazily-built singles table remains
/// O(total instances) when forced (TopKProbability / RAND_K); the
/// incremental serving path never touches it.
class MembershipCalculator {
 public:
  /// `db` must be finalized. k is clamped to [1, num_objects].
  MembershipCalculator(const model::Database& db, int k);

  /// Delta mode: layers per-overridden-object prefix columns over `base`
  /// (which must not itself be a delta-mode calculator and must outlive
  /// this one). `delta_db` must be a delta over base->db(). Picks up every
  /// override already present in `delta_db`, so a calculator built after a
  /// snapshot restore is immediately consistent.
  MembershipCalculator(std::shared_ptr<const MembershipCalculator> base,
                       const model::Database& delta_db);

  int k() const { return k_; }
  const model::Database& db() const { return *db_; }

  /// The shared base calculator in delta mode, nullptr in base mode.
  const MembershipCalculator* base_calc() const { return base_calc_.get(); }

  /// Resident bytes of delta-mode state: override prefix columns plus the
  /// singles table if some consumer forced it. Zero in base mode.
  int64_t DeltaBytes() const;

  /// The db mutation_version() this calculator's cached state reflects.
  /// SelectorOptions::MembershipFor treats a mismatch with the live
  /// database as stale and builds a fresh calculator instead.
  uint64_t db_version() const { return db_version_; }

  /// Re-reads the per-object Poisson-binomial inputs (prefix masses) of
  /// just the given objects after DatabaseOverlay::Reweight mutated their
  /// probabilities in place, and invalidates the lazily-built singles
  /// table (rebuilt on next use). Cost is O(sum of touched objects'
  /// instances); untouched objects' columns are reused as-is, which is
  /// exact because a prefix column depends only on its own object's
  /// marginal. Call with *all* objects reweighted since the last refresh;
  /// not safe against concurrent queries.
  void RefreshObjects(std::span<const model::ObjectId> objects);

  /// PT_k(i, O). Lazily computes all instances' values in one scan.
  double TopKProbability(model::InstanceRef ref) const;

  /// Object-level membership: sum of PT_k over the object's instances,
  /// i.e., the probability the object appears in the top-k result.
  double ObjectTopKProbability(model::ObjectId oid) const;

  /// Joint tables for one object pair, used by the Δ bound derivation
  /// (Algorithm 5). pt[a][b] = PT_k(i_a, i_b) and npt[a][b] =
  /// NPT_k(i_a, i_b), where a indexes o1's instances and b indexes o2's.
  struct PairTables {
    PairMatrix pt;
    PairMatrix npt;
  };
  PairTables ComputePairTables(model::ObjectId o1, model::ObjectId o2) const;

  /// Normalized conditionals for the Eq. 18 node-pair bound:
  /// both    = Pr(both objects in top-k | both instances chosen)
  /// neither = Pr(neither object in top-k | both instances chosen)
  /// Returns {0, 0} when the two instances share an object (the bound then
  /// degenerates to Ĥ, which stays admissible).
  struct PairConditionals {
    double both = 0.0;
    double neither = 0.0;
  };
  PairConditionals ConditionalPairMembership(model::InstanceRef a,
                                             model::InstanceRef b) const;

  /// Lower bounds of the same conditionals for *any* two distinct objects
  /// whose instances with mass all have values in [lo_value, hi_value] —
  /// the diagonal node pair (n, n), where both extreme bound sources can
  /// belong to one object. One scan with no exclusions answers both:
  /// `neither` at the first sorted position with value >= lo_value,
  /// `both` at the last sorted position with value <= hi_value. Positions,
  /// not instances, because tied values put other objects' instances on
  /// either side of any one source. Admissible pathwise: leaving the pair
  /// in the count can only raise the number of objects ranked above a
  /// point, that number only grows with position, and neither object has
  /// mass before the first position, so there the two counts agree.
  PairConditionals SpanPairMembership(double lo_value, double hi_value) const;

  /// Forces the lazily-built singles table and returns it (flat, one slot
  /// per (oid, iid) plus the per-object sentinel, parallel to the prefix
  /// table). The persist catalog stores this so a warm restart skips the
  /// full pre-warm scan.
  const std::vector<double>& ExportWarmSingles() const;

  /// Installs a previously exported singles table, marking the lazy build
  /// as done. Rejects a table whose size does not match this calculator's
  /// layout (different database or k mismatch upstream). The caller is
  /// responsible for the table matching this exact database state — the
  /// catalog guards that with a database fingerprint.
  bool ImportWarmSingles(std::span<const double> singles);

 private:
  struct PositionQuery {
    model::Position pos = 0;
    double ple_km2 = 0.0;  // Pr(count of others strictly below pos <= k-2)
    double ple_km1 = 0.0;  // Pr(count of others strictly below pos <= k-1)
  };

  // Runs the ascending scan with `excluded` objects never entering the
  // count and fills the cumulative values of `queries` (sorted by pos).
  void ScanPositions(std::span<const model::ObjectId> excluded,
                     std::vector<PositionQuery>& queries) const;

  // Exact probability mass of object oid's instances with index < iid
  // (partial sums; 0 for iid == 0, exactly 1 past the last instance).
  // Delta mode checks the override map first, then the base's column.
  double PrefixMass(model::ObjectId oid, model::InstanceId iid) const {
    if (base_calc_ != nullptr) {
      const auto it = prefix_over_.find(oid);
      if (it != prefix_over_.end()) return it->second[iid];
      return base_calc_->prefix_[base_calc_->flat_offset_[oid] + iid];
    }
    return prefix_[flat_offset_[oid] + iid];
  }

  // The database whose sorted index scans iterate: the shared base in
  // delta mode (identical values and order; probabilities always resolve
  // through PrefixMass / object()).
  const model::Database& index_db() const {
    return base_calc_ != nullptr ? base_calc_->db() : *db_;
  }

  // Flat (oid, iid) layout shared with the base in delta mode.
  int flat_offset(model::ObjectId oid) const {
    return base_calc_ != nullptr ? base_calc_->flat_offset_[oid]
                                 : flat_offset_[oid];
  }
  size_t flat_size() const {
    return base_calc_ != nullptr ? base_calc_->prefix_.size()
                                 : prefix_.size();
  }

  void EnsureSingles() const;
  void BuildSingles() const;

  // Recomputes one object's prefix-mass column from the live database
  // (into the override map in delta mode).
  void FillPrefixColumn(model::ObjectId oid);

  const model::Database* db_;
  int k_;
  uint64_t db_version_ = 0;
  std::vector<int> flat_offset_;     // oid -> start in prefix_/pt_single_
  std::vector<double> prefix_;       // exact per-object prefix masses by iid
  // Delta mode: the shared base calculator and the overridden columns
  // (each sized num_instances + 1, same sentinel contract as prefix_).
  std::shared_ptr<const MembershipCalculator> base_calc_;
  std::unordered_map<model::ObjectId, std::vector<double>> prefix_over_;
  mutable std::atomic<bool> singles_ready_{false};
  mutable std::mutex singles_mutex_;
  mutable std::vector<double> pt_single_;  // PT_k per (oid,iid), flat
};

}  // namespace ptk::rank

#endif  // PTK_RANK_MEMBERSHIP_H_
