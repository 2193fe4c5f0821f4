#include "core/brute_force_selector.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/cancellation.h"
#include "util/thread_pool.h"

namespace ptk::core {

BruteForceSelector::BruteForceSelector(const model::Database& db,
                                       const SelectorOptions& options)
    : db_(&db), options_(options) {}

util::Status BruteForceSelector::SelectPairs(int t,
                                             std::vector<ScoredPair>* out) {
  static obs::Counter* const pairs_evaluated =
      obs::GetCounter("ptk_selector_pairs_evaluated_total",
                      "Candidate pairs whose EI was computed");
  static obs::Histogram* const sweep_seconds =
      obs::GetHistogram("ptk_selector_ei_sweep_seconds",
                        "Latency of one EI evaluation step: one pair's Δ "
                        "bounds (PBTREE/OPT), one exact sweep (BF)");
  obs::Span span("BruteForceSelector::SelectPairs");
  obs::ScopedTimer sweep_timer(sweep_seconds);
  const int m = db_->num_objects();
  const int64_t total = static_cast<int64_t>(m) * (m - 1) / 2;
  std::vector<ScoredPair> scored(total);
  int64_t idx = 0;
  for (model::ObjectId a = 0; a < m; ++a) {
    for (model::ObjectId b = a + 1; b < m; ++b) {
      scored[idx].a = a;
      scored[idx].b = b;
      ++idx;
    }
  }

  // Every pair's exact EI is independent, so the quadratic sweep shards
  // cleanly; each shard reuses one evaluator (the enumerator is stateless,
  // but per-shard instances keep the loop free of shared writes). Scores
  // land in the pair's own slot, so the merge below is the same
  // deterministic sort as the serial path and the output is bit-identical
  // for every shard count.
  // Cancellation reaches the sweep twice: the per-shard evaluator's
  // enumerations poll the token internally, and the pair loop polls it
  // between pairs so a shard of cheap enumerations still stops promptly.
  pw::EnumeratorOptions enum_options = options_.enumerator;
  if (enum_options.cancel == nullptr) enum_options.cancel = options_.cancel;
  std::vector<util::Status> shard_status(
      std::max(1, options_.parallel.Shards()), util::Status::OK());
  util::ParallelFor(
      options_.parallel, total, [&](int shard, int64_t begin, int64_t end) {
        const QualityEvaluator evaluator(*db_, options_.k, options_.order,
                                         enum_options);
        for (int64_t i = begin; i < end; ++i) {
          if (util::CancelRequested(options_.cancel)) {
            shard_status[shard] =
                util::Status::Cancelled("BF selection cancelled");
            return;
          }
          double ei = 0.0;
          const util::Status s = evaluator.ExactExpectedImprovement(
              scored[i].a, scored[i].b, nullptr, &ei);
          if (!s.ok()) {
            shard_status[shard] = s;
            return;
          }
          scored[i].ei_estimate = scored[i].ei_lower = scored[i].ei_upper =
              ei;
        }
      });
  for (const util::Status& s : shard_status) {
    if (!s.ok()) return s;
  }
  pairs_evaluated->Add(total);

  std::sort(scored.begin(), scored.end(),
            [](const ScoredPair& x, const ScoredPair& y) {
              if (x.ei_estimate != y.ei_estimate) {
                return x.ei_estimate > y.ei_estimate;
              }
              if (x.a != y.a) return x.a < y.a;
              return x.b < y.b;
            });
  if (static_cast<int>(scored.size()) > t) scored.resize(t);
  *out = std::move(scored);
  return util::Status::OK();
}

}  // namespace ptk::core
