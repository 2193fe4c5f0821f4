#ifndef PTK_TESTS_TEST_UTIL_H_
#define PTK_TESTS_TEST_UTIL_H_

#include <cmath>
#include <cstdlib>
#include <span>
#include <utility>
#include <vector>

#include "model/database.h"
#include "pw/constraint.h"
#include "pw/possible_world.h"
#include "util/rng.h"

namespace ptk::testing {

/// The running example of Fig. 1 / Table 1: three photos with estimated
/// ages. The value order i11 < i21 < i31 < i12 < i22 < i32 with
/// probabilities (.2/.8, .2/.8, .6/.4) reproduces every possible-world
/// probability and top-2 result of Table 1 (e.g., P(W1) = 0.024,
/// P(2, {o1,o3}) = 0.48, H(S_2) = 0.941, P(o2 > o1) = 0.84).
inline model::Database PaperExampleDb() {
  model::Database db;
  db.AddObject({{20.0, 0.2}, {23.0, 0.8}}, "o1");
  db.AddObject({{21.0, 0.2}, {24.0, 0.8}}, "o2");
  db.AddObject({{22.0, 0.6}, {25.0, 0.4}}, "o3");
  const util::Status s = db.Finalize();
  if (!s.ok()) std::abort();
  return db;
}

/// A random small database for property sweeps: `m` objects with up to
/// `max_instances` instances each, values drawn in [0, 100) (duplicates
/// within an object merged by re-drawing), probabilities random.
inline model::Database RandomDb(int m, int max_instances, uint64_t seed) {
  util::Rng rng(seed);
  model::Database db;
  for (int o = 0; o < m; ++o) {
    const int count = static_cast<int>(rng.UniformInt(1, max_instances));
    std::vector<std::pair<double, double>> pairs;
    double total = 0.0;
    for (int i = 0; i < count; ++i) {
      double v;
      bool fresh;
      do {
        v = std::floor(rng.Uniform(0.0, 100.0) * 4.0) / 4.0;
        fresh = true;
        for (const auto& p : pairs) fresh &= (p.first != v);
      } while (!fresh);
      const double w = rng.Uniform(0.05, 1.0);
      pairs.emplace_back(v, w);
      total += w;
    }
    for (auto& p : pairs) p.second /= total;
    db.AddObject(std::move(pairs));
  }
  const util::Status s = db.Finalize();
  if (!s.ok()) std::abort();
  return db;
}

/// Like RandomDb, but with 1-3 instances per object whose values come from
/// {0, ..., 5}: instances of several objects share values, so the
/// (value, oid, iid) tie-break decides their order.
inline model::Database TiedDb(int m, uint64_t seed) {
  util::Rng rng(seed);
  model::Database db;
  for (int o = 0; o < m; ++o) {
    const int count = static_cast<int>(rng.UniformInt(1, 3));
    std::vector<std::pair<double, double>> pairs;
    double total = 0.0;
    while (static_cast<int>(pairs.size()) < count) {
      const double v = static_cast<double>(rng.UniformInt(0, 5));
      bool fresh = true;
      for (const auto& p : pairs) fresh &= (p.first != v);
      if (!fresh) continue;
      const double w = rng.Uniform(0.05, 1.0);
      pairs.emplace_back(v, w);
      total += w;
    }
    for (auto& p : pairs) p.second /= total;
    db.AddObject(std::move(pairs));
  }
  if (!db.Finalize().ok()) std::abort();
  return db;
}

/// Exact Δ(A(P_1)) = H(S_k, A(P_1)) - H(S_k) by exhaustive world
/// enumeration — the oracle for the Algorithm 5 bounds.
inline double ExactDelta(const model::Database& db, int k,
                         pw::OrderMode order, model::ObjectId o1,
                         model::ObjectId o2) {
  pw::ExactEngine engine(db);
  // Joint distribution over (top-k result, comparison outcome).
  pw::TopKDistribution joint(order);
  pw::TopKDistribution marginal(order);
  const util::Status s = engine.ForEachWorld(
      [&](std::span<const model::InstanceId> iids, double p) {
        pw::ResultKey key = pw::WorldTopK(db, iids, k);
        marginal.Add(key, p);
        const bool o1_greater = db.PositionOf({o1, iids[o1]}) >
                                db.PositionOf({o2, iids[o2]});
        // Tag the outcome by appending a sentinel object id; kInsensitive
        // canonicalization keeps the (negative) sentinel distinct.
        key.push_back(o1_greater ? -2 : -3);
        joint.Add(std::move(key), p);
      });
  if (!s.ok()) std::abort();
  return joint.Entropy() - marginal.Entropy();
}

}  // namespace ptk::testing

#endif  // PTK_TESTS_TEST_UTIL_H_
