// Quickstart: walks through the paper's running example (Fig. 1 / Table 1)
// with the public API — build a probabilistic database, inspect the top-k
// result distribution and its quality, pick the best pair to crowdsource,
// and condition on the answer.
//
// All of it runs through engine::RankingEngine, the conditioning layer the
// cleaning sessions and the CLI share.
//
// Run: ./quickstart
// Every printed number matches the paper's Section 1-3 walk-through.

#include <cstdio>
#include <cstdlib>
#include <memory>

#include "ptk.h"

namespace {

void Check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAILED: %s\n", what);
    std::exit(1);
  }
}

}  // namespace

int main() {
  // Three photos of a person whose age is estimated by an imperfect model;
  // each photo is an uncertain object with mutually exclusive age guesses.
  ptk::model::Database db;
  db.AddObject({{20.0, 0.2}, {23.0, 0.8}}, "photo o1");
  db.AddObject({{21.0, 0.2}, {24.0, 0.8}}, "photo o2");
  db.AddObject({{22.0, 0.6}, {25.0, 0.4}}, "photo o3");
  Check(db.Finalize().ok(), "database validation");

  ptk::engine::RankingEngine::Options options;
  options.k = 2;
  options.fanout = 2;
  ptk::engine::RankingEngine engine(db, options);

  // The distribution over top-2 (youngest) photo sets across all possible
  // worlds, and its entropy — the paper's quality metric (Eq. 4).
  ptk::util::StatusOr<ptk::pw::TopKDistribution> dist_or =
      engine.Distribution();
  Check(dist_or.ok(), "top-k enumeration");
  const ptk::pw::TopKDistribution& dist = *dist_or;
  std::printf("Top-2 result distribution (order-insensitive):\n");
  for (const auto& [key, prob] : dist.SortedByProbDesc()) {
    std::printf("  {");
    for (size_t i = 0; i < key.size(); ++i) {
      std::printf("%s%s", i ? ", " : "", db.object(key[i]).label().c_str());
    }
    std::printf("}  p = %.3f\n", prob);
  }
  std::printf("Quality H(S_2) = %.3f  (paper: 0.941)\n\n", dist.Entropy());

  // Pairwise comparison probabilities (Eq. 1).
  std::printf("P(o2 > o1) = %.2f  (paper: 0.84)\n\n",
              ptk::rank::ProbGreater(db.object(1), db.object(0)));

  // Which single pair should we crowdsource? The bound-based selector
  // (PB-tree + Algorithm 5) finds the pair with the highest expected
  // quality improvement.
  std::unique_ptr<ptk::core::PairSelector> selector =
      engine.MakeSelector(ptk::core::SelectorKind::kOpt);
  std::vector<ptk::core::ScoredPair> best;
  Check(selector->SelectPairs(1, &best).ok() && best.size() == 1,
        "pair selection");
  std::printf("Best pair to crowdsource: (%s, %s), estimated EI = %.3f\n",
              db.object(best[0].a).label().c_str(),
              db.object(best[0].b).label().c_str(), best[0].ei_estimate);

  double exact_ei = 0.0;
  Check(engine.evaluator()
            .ExactExpectedImprovement(0, 1, nullptr, &exact_ei)
            .ok(),
        "exact EI");
  std::printf("Exact EI of (o1, o2) = %.3f  (paper: 0.26)\n\n", exact_ei);

  // Suppose the expert answers "o3 is younger than o1": fold the comparison
  // into the engine (Eq. 5 conditioning) and observe the confidence jump.
  ptk::engine::RankingEngine::FoldOutcome outcome;
  Check(engine.Fold(/*smaller=*/2, /*larger=*/0, /*update_working=*/false,
                    &outcome)
                .ok() &&
            outcome == ptk::engine::RankingEngine::FoldOutcome::kApplied,
        "conditioning");
  ptk::util::StatusOr<ptk::pw::TopKDistribution> cleaned_or =
      engine.Distribution();
  Check(cleaned_or.ok(), "conditioned distribution");
  const ptk::pw::TopKDistribution& cleaned = *cleaned_or;
  std::printf("After the crowd answers 'o3 < o1':\n");
  std::printf("  P({o1, o3}) = %.2f  (paper: 0.80)\n",
              cleaned.ProbOf({0, 2}));
  std::printf("  quality improves from %.3f to %.3f\n", dist.Entropy(),
              cleaned.Entropy());
  return 0;
}
