#include "crowd/adaptive.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace ptk::crowd {

namespace {

engine::RankingEngine::Options EngineOptions(
    const AdaptiveCleaner::Options& options) {
  engine::RankingEngine::Options engine_options;
  engine_options.k = options.k;
  engine_options.order = options.order;
  engine_options.enumerator = options.enumerator;
  engine_options.fanout = options.fanout;
  engine_options.semantics = options.semantics;
  return engine_options;
}

}  // namespace

AdaptiveCleaner::AdaptiveCleaner(const model::Database& db,
                                 ComparisonOracle* oracle,
                                 const Options& options)
    : oracle_(oracle),
      options_(options),
      engine_(db, EngineOptions(options)) {}

util::Status AdaptiveCleaner::Init() {
  if (initialized_) return util::Status::OK();
  // Every step folds with update_working, so materialize the working copy
  // up front: the selection artifacts then build once on the private copy
  // and are refreshed per-object by each fold, instead of being discarded
  // when the first fold forces the copy into existence.
  engine_.PrepareWorkingCopy();
  const util::StatusOr<double> h = engine_.Quality();
  if (!h.ok()) {
    return h.status().WithContext("AdaptiveCleaner::Init: H(S_k)");
  }
  initial_quality_ = *h;
  initialized_ = true;
  return util::Status::OK();
}

util::StatusOr<std::vector<AdaptiveCleaner::StepReport>> AdaptiveCleaner::Run(
    int budget) {
  if (!initialized_) {
    return util::Status::FailedPrecondition(
        "AdaptiveCleaner::Run called without a successful Init()");
  }
  static obs::Histogram* const step_seconds =
      obs::GetHistogram("ptk_adaptive_step_seconds",
                        "Latency of one AdaptiveCleaner select-ask-fold step");
  static obs::Counter* const steps_run = obs::GetCounter(
      "ptk_adaptive_steps_total", "Adaptive select-ask-fold steps completed");
  static obs::Counter* const steps_contradictory = obs::GetCounter(
      "ptk_adaptive_steps_contradictory_total",
      "Adaptive steps whose answer was discarded as inconsistent");
  std::vector<StepReport> steps;
  for (int step = 0; step < budget; ++step) {
    obs::Span span("AdaptiveCleaner::Step");
    obs::ScopedTimer step_timer(step_seconds);
    // A fresh selector per step borrows the engine's incrementally
    // maintained membership calculator and PB-tree, so construction does
    // not re-scan or re-index the untouched objects.
    std::unique_ptr<core::PairSelector> selector =
        engine_.MakeSelector(core::SelectorKind::kOpt);
    // Over-request so previously asked pairs can be skipped. Object ids
    // are stable across folds: the overlay reweights marginals in place
    // and never drops objects.
    std::vector<core::ScoredPair> candidates;
    util::Status s = selector->SelectPairs(
        static_cast<int>(asked_.size()) + 1, &candidates);
    if (!s.ok()) return s;
    const core::ScoredPair* chosen = nullptr;
    for (const auto& pair : candidates) {
      const auto key = std::minmax(pair.a, pair.b);
      if (!asked_.contains({key.first, key.second})) {
        chosen = &pair;
        break;
      }
    }
    if (chosen == nullptr) {
      return util::Status::ResourceExhausted(
          "no unasked pair left in the selector's stream");
    }

    StepReport report;
    report.pair = *chosen;
    const auto key = std::minmax(chosen->a, chosen->b);
    asked_.insert({key.first, key.second});
    report.first_greater = oracle_->Compare(chosen->a, chosen->b);
    const model::ObjectId smaller =
        report.first_greater ? chosen->b : chosen->a;
    const model::ObjectId larger =
        report.first_greater ? chosen->a : chosen->b;

    // Accept the answer only if it is consistent with the accepted set
    // (same rule as CleaningSession) and the marginal fold is
    // non-degenerate; the engine then updates the two objects in place.
    engine::RankingEngine::FoldOutcome outcome;
    s = engine_.Fold(smaller, larger, /*update_working=*/true, &outcome);
    if (!s.ok()) return s;
    report.applied =
        outcome == engine::RankingEngine::FoldOutcome::kApplied;
    steps_run->Add();
    if (!report.applied) steps_contradictory->Add();

    const util::StatusOr<double> h = engine_.Quality();
    if (!h.ok()) return h.status();
    report.true_quality = *h;
    steps.push_back(std::move(report));
  }
  return steps;
}

}  // namespace ptk::crowd
