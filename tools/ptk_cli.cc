// ptk_cli — command-line driver for the library: load a probabilistic
// database from CSV, inspect its top-k distribution, and get the best
// object pairs to crowdsource.
//
// Usage:
//   ptk_cli topk      <db.csv> <k> [--order-sensitive] [--limit N]
//   ptk_cli quality   <db.csv> <k> [--order-sensitive]
//   ptk_cli select    <db.csv> <k> <quota>
//             [--selector bf|pbtree|opt|rand|rand_k|hrs1|hrs2]
//   ptk_cli semantics <db.csv> <k>
//   ptk_cli clean     <db.csv> <k> <answers.csv>
//
// Every command additionally accepts --metrics[=text|json|prom]: after the
// command finishes, a snapshot of the process-wide metrics registry
// (counters, gauges, latency histograms — see DESIGN.md §4.10) is written
// to stderr in the requested format (default text), keeping stdout's
// command output byte-identical with and without the flag.
//
// answers.csv rows are "smaller_oid,larger_oid" comparison outcomes
// (value(smaller) < value(larger)).
//
// CSV format for databases: header "oid,value,prob", one instance per row
// (see data::SaveCsv / data::LoadCsv).
//
// Every command runs through engine::RankingEngine, the same conditioning
// layer the cleaning sessions use.

#include <charconv>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/semantics.h"
#include "data/answers.h"
#include "data/csv.h"
#include "engine/ranking_engine.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "topk/semantics.h"

namespace {

/// Whole-argument checked parse: "12" is 12; "abc", "1x", "" and
/// out-of-range values all fail instead of silently becoming 0 the way
/// std::atoi would.
bool ParseInt(const char* arg, int* out) {
  if (arg == nullptr || *arg == '\0') return false;
  const char* end = arg + std::strlen(arg);
  const auto [ptr, ec] = std::from_chars(arg, end, *out);
  return ec == std::errc{} && ptr == end;
}

int FailBadInt(const char* what, const char* arg) {
  std::fprintf(stderr, "error: %s must be an integer, got '%s'\n", what, arg);
  return 2;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  ptk_cli topk      <db.csv> <k> [--order-sensitive] [--limit N]\n"
      "  ptk_cli quality   <db.csv> <k> [--order-sensitive]\n"
      "  ptk_cli select    <db.csv> <k> <quota> [--selector "
      "bf|pbtree|opt|rand|rand_k|hrs1|hrs2]\n"
      "  ptk_cli semantics <db.csv> <k>\n"
      "  ptk_cli clean     <db.csv> <k> <answers.csv>\n"
      "common flags:\n"
      "  --metrics[=text|json|prom]  dump the metrics registry to stderr\n"
      "  --semantics entropy|expected_rank|ukranks  ranking objective for\n"
      "      topk/quality/select/clean (default entropy)\n");
  return 2;
}

bool HasFlag(int argc, char** argv, const char* flag) {
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return true;
  }
  return false;
}

const char* FlagValue(int argc, char** argv, const char* flag) {
  for (int i = 0; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return argv[i + 1];
  }
  return nullptr;
}

int Fail(const ptk::util::Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

/// --metrics handling: absent, or one of the exporter formats.
enum class MetricsFormat { kNone, kText, kJson, kProm };

/// Parses --metrics / --metrics=<fmt> anywhere on the command line.
/// Returns false (with a diagnostic) for an unknown format.
bool ParseMetricsFlag(int argc, char** argv, MetricsFormat* out) {
  *out = MetricsFormat::kNone;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--metrics") == 0) {
      *out = MetricsFormat::kText;
      return true;
    }
    if (std::strncmp(argv[i], "--metrics=", 10) == 0) {
      const char* fmt = argv[i] + 10;
      if (std::strcmp(fmt, "text") == 0) {
        *out = MetricsFormat::kText;
      } else if (std::strcmp(fmt, "json") == 0) {
        *out = MetricsFormat::kJson;
      } else if (std::strcmp(fmt, "prom") == 0) {
        *out = MetricsFormat::kProm;
      } else {
        std::fprintf(stderr,
                     "error: --metrics format must be text, json or prom, "
                     "got '%s'\n",
                     fmt);
        return false;
      }
      return true;
    }
  }
  return true;
}

void DumpMetrics(MetricsFormat format) {
  if (format == MetricsFormat::kNone) return;
  // Pre-register the headline families (find-or-create; name/help pairs
  // match the instrumentation sites) so a snapshot always carries them —
  // a `topk` run reports zero selector prunes rather than omitting the
  // series, the Prometheus convention for "happened zero times".
  ptk::obs::GetHistogram("ptk_engine_fold_seconds",
                         "Latency of RankingEngine::Fold");
  ptk::obs::GetCounter("ptk_engine_folds_applied_total",
                       "Answers folded into the constraint set");
  ptk::obs::GetCounter("ptk_engine_folds_rejected_total",
                       "Answers rejected (contradictory or degenerate)");
  ptk::obs::GetCounter("ptk_selector_pairs_evaluated_total",
                       "Candidate pairs whose EI was computed");
  ptk::obs::GetCounter("ptk_selector_delta_prunes_total",
                       "Candidate pairs skipped by the Δ-bound threshold");
  ptk::obs::GetHistogram("ptk_session_round_seconds",
                         "Latency of one CleaningSession round");
  ptk::obs::GetCounter("ptk_session_rounds_total",
                       "Cleaning rounds completed");
  const ptk::obs::MetricsSnapshot snapshot =
      ptk::obs::MetricsRegistry::Default().Snapshot();
  std::string text;
  switch (format) {
    case MetricsFormat::kText:
      text = ptk::obs::FormatText(snapshot);
      break;
    case MetricsFormat::kJson:
      text = ptk::obs::FormatJson(snapshot);
      break;
    case MetricsFormat::kProm:
      text = ptk::obs::FormatPrometheus(snapshot);
      break;
    case MetricsFormat::kNone:
      return;
  }
  std::fputs(text.c_str(), stderr);
}

void PrintKey(const ptk::pw::ResultKey& key) {
  std::printf("{");
  for (size_t i = 0; i < key.size(); ++i) {
    std::printf("%s%d", i ? "," : "", key[i]);
  }
  std::printf("}");
}

/// Parses --semantics NAME anywhere on the command line; absent means the
/// default entropy objective (and byte-identical default output). Returns
/// false with a diagnostic listing the registry for an unknown name.
bool ParseSemanticsFlag(int argc, char** argv, ptk::core::SemanticsId* out) {
  *out = ptk::core::SemanticsId::kEntropy;
  const char* name = FlagValue(argc, argv, "--semantics");
  if (name == nullptr) return true;
  const auto id = ptk::core::SemanticsFromName(name);
  if (!id.has_value()) {
    std::string known;
    for (const ptk::core::SemanticsId sid : ptk::core::AllSemantics()) {
      if (!known.empty()) known += "|";
      known += std::string(ptk::core::SemanticsName(sid));
    }
    std::fprintf(stderr, "error: unknown --semantics '%s' (known: %s)\n",
                 name, known.c_str());
    return false;
  }
  *out = *id;
  return true;
}

ptk::engine::RankingEngine::Options EngineOptions(
    int k, ptk::core::SemanticsId semantics, int argc, char** argv) {
  ptk::engine::RankingEngine::Options options;
  options.k = k;
  options.semantics = semantics;
  options.order = HasFlag(argc, argv, "--order-sensitive")
                      ? ptk::pw::OrderMode::kSensitive
                      : ptk::pw::OrderMode::kInsensitive;
  return options;
}

int RunTopK(const ptk::model::Database& db, int k,
            ptk::core::SemanticsId semantics, int argc, char** argv) {
  int limit = 20;
  if (const char* v = FlagValue(argc, argv, "--limit")) {
    if (!ParseInt(v, &limit) || limit < 0) return FailBadInt("--limit", v);
  }
  ptk::engine::RankingEngine engine(db,
                                    EngineOptions(k, semantics, argc, argv));
  if (semantics != ptk::core::SemanticsId::kEntropy) {
    // Non-entropy objectives answer with a ranked object list, not a
    // distribution over result sets.
    ptk::util::StatusOr<std::vector<ptk::topk::ScoredObject>> answer =
        engine.PointAnswer();
    if (!answer.ok()) return Fail(answer.status());
    ptk::util::StatusOr<double> u = engine.Quality();
    if (!u.ok()) return Fail(u.status());
    std::printf("# %s top-%d (oid,score), U = %.6f\n",
                std::string(engine.semantics().name()).c_str(), k, *u);
    for (const auto& so : *answer) {
      std::printf("%d,%.6f\n", so.oid, so.score);
    }
    return 0;
  }
  ptk::util::StatusOr<ptk::pw::TopKDistribution> dist = engine.Distribution();
  if (!dist.ok()) return Fail(dist.status());
  std::printf("# %zu distinct top-%d results, H = %.6f\n", dist->size(), k,
              dist->Entropy());
  int shown = 0;
  for (const auto& [key, p] : dist->SortedByProbDesc()) {
    if (shown++ >= limit) break;
    std::printf("%.6f  ", p);
    PrintKey(key);
    std::printf("\n");
  }
  return 0;
}

int RunQuality(const ptk::model::Database& db, int k,
               ptk::core::SemanticsId semantics, int argc, char** argv) {
  ptk::engine::RankingEngine engine(db,
                                    EngineOptions(k, semantics, argc, argv));
  ptk::util::StatusOr<double> h = engine.Quality();
  if (!h.ok()) return Fail(h.status());
  if (semantics != ptk::core::SemanticsId::kEntropy) {
    std::printf("U_%s(k=%d) = %.6f\n",
                std::string(engine.semantics().name()).c_str(), k, *h);
    return 0;
  }
  std::printf("H(S_%d) = %.6f\n", k, *h);
  return 0;
}

int RunSelect(const ptk::model::Database& db, int k, int quota,
              ptk::core::SemanticsId semantics, int argc, char** argv) {
  ptk::engine::RankingEngine::Options options =
      EngineOptions(k, semantics, argc, argv);
  const char* name = FlagValue(argc, argv, "--selector");
  // core::SelectorKindFromName is case-insensitive, so the historical
  // lowercase spellings ("--selector opt") need no normalization here.
  const auto kind =
      ptk::core::SelectorKindFromName(name == nullptr ? "OPT" : name);
  if (!kind.has_value()) return Usage();
  if (*kind == ptk::core::SelectorKind::kHrs2) {
    options.candidate_pool = 4 * quota;
  }
  ptk::engine::RankingEngine engine(db, options);
  std::unique_ptr<ptk::core::PairSelector> selector =
      engine.MakeSelector(*kind);
  std::vector<ptk::core::ScoredPair> pairs;
  if (ptk::util::Status s = selector->SelectPairs(quota, &pairs); !s.ok()) {
    return Fail(s);
  }
  std::printf("# %s selected %zu pairs (oid_a,oid_b,ei_estimate)\n",
              selector->name().c_str(), pairs.size());
  for (const auto& p : pairs) {
    std::printf("%d,%d,%.6f\n", p.a, p.b, p.ei_estimate);
  }
  return 0;
}

int RunSemantics(const ptk::model::Database& db, int k) {
  const ptk::util::StatusOr<ptk::topk::UTopKAnswer> utopk =
      ptk::topk::UTopK(db, k, ptk::pw::OrderMode::kInsensitive);
  if (!utopk.ok()) return Fail(utopk.status());
  std::printf("U-Top%d: ", k);
  PrintKey(utopk->result);
  std::printf("  p = %.6f\n", utopk->probability);

  const ptk::util::StatusOr<std::vector<ptk::topk::ScoredObject>> ranks =
      ptk::topk::UKRanks(db, k);
  if (!ranks.ok()) return Fail(ranks.status());
  std::printf("U-kRanks:");
  for (size_t r = 0; r < ranks->size(); ++r) {
    std::printf(" #%zu=%d(%.3f)", r + 1, (*ranks)[r].oid, (*ranks)[r].score);
  }
  std::printf("\n");

  std::printf("Global-Top%d:", k);
  for (const auto& so : ptk::topk::GlobalTopK(db, k)) {
    std::printf(" %d(%.3f)", so.oid, so.score);
  }
  std::printf("\nExpectedRank-Top%d:", k);
  for (const auto& so : ptk::topk::ExpectedRankTopK(db, k)) {
    std::printf(" %d(%.2f)", so.oid, so.score);
  }
  std::printf("\n");
  return 0;
}

int RunClean(const ptk::model::Database& db, int k,
             ptk::core::SemanticsId semantics, const char* answers) {
  ptk::util::StatusOr<std::vector<ptk::data::ParsedAnswer>> parsed =
      ptk::data::LoadAnswers(answers, db.num_objects());
  if (!parsed.ok()) return Fail(parsed.status());
  ptk::engine::RankingEngine::Options options;
  options.k = k;
  options.semantics = semantics;
  ptk::engine::RankingEngine engine(db, options);
  ptk::util::StatusOr<double> before = engine.Quality();
  if (!before.ok()) return Fail(before.status());
  // Fold answers in file order through the engine and stop at the first
  // one that leaves zero surviving possible worlds, naming the line and
  // the accepted chain it conflicts with.
  for (const ptk::data::ParsedAnswer& answer : *parsed) {
    ptk::engine::RankingEngine::FoldOutcome outcome;
    if (ptk::util::Status s =
            engine.Fold(answer.smaller, answer.larger,
                        /*update_working=*/false, &outcome);
        !s.ok()) {
      return Fail(s);
    }
    if (outcome != ptk::engine::RankingEngine::FoldOutcome::kApplied) {
      std::string detail = "answer '" + answer.text + "' (line " +
                           std::to_string(answer.line_no) +
                           ") is infeasible: it leaves zero surviving "
                           "possible worlds given the answers before it";
      const auto chain =
          engine.constraints().FindChain(answer.larger, answer.smaller);
      if (!chain.empty()) {
        detail += "; it contradicts the accepted chain " +
                  ptk::pw::ConstraintSet::FormatChain(chain);
      }
      return Fail(ptk::util::Status::InvalidArgument(detail).WithContext(
          std::string(answers)));
    }
  }
  ptk::util::StatusOr<double> after = engine.Quality();
  if (!after.ok()) return Fail(after.status());
  std::printf("answers applied: %d\nH before = %.6f\nH after  = %.6f\n"
              "improvement = %.6f\n",
              engine.constraints().size(), *before, *after, *before - *after);
  return 0;
}

}  // namespace

int RunCommand(const std::string& command, const ptk::model::Database& db,
               int k, ptk::core::SemanticsId semantics, int argc,
               char** argv) {
  if (command == "topk") return RunTopK(db, k, semantics, argc, argv);
  if (command == "quality") return RunQuality(db, k, semantics, argc, argv);
  if (command == "select") {
    if (argc < 5) return Usage();
    int quota = 0;
    if (!ParseInt(argv[4], &quota)) return FailBadInt("quota", argv[4]);
    if (quota < 1) {
      std::fprintf(stderr, "error: quota must be positive\n");
      return 1;
    }
    return RunSelect(db, k, quota, semantics, argc, argv);
  }
  if (command == "semantics") return RunSemantics(db, k);
  if (command == "clean") {
    if (argc < 5) return Usage();
    return RunClean(db, k, semantics, argv[4]);
  }
  return Usage();
}

int main(int argc, char** argv) {
  if (argc < 4) return Usage();
  const std::string command = argv[1];
  MetricsFormat metrics_format = MetricsFormat::kNone;
  if (!ParseMetricsFlag(argc, argv, &metrics_format)) return 2;
  ptk::core::SemanticsId semantics = ptk::core::SemanticsId::kEntropy;
  if (!ParseSemanticsFlag(argc, argv, &semantics)) return 2;
  ptk::util::StatusOr<ptk::model::Database> db = ptk::data::LoadCsv(argv[2]);
  if (!db.ok()) return Fail(db.status());
  int k = 0;
  if (!ParseInt(argv[3], &k)) return FailBadInt("k", argv[3]);
  if (k < 1 || k > db->num_objects()) {
    std::fprintf(stderr, "error: k must be in [1, %d]\n", db->num_objects());
    return 1;
  }

  const int exit_code = RunCommand(command, *db, k, semantics, argc, argv);
  // Dump after the command so the snapshot covers its work; stdout is
  // already complete and identical to a run without --metrics.
  DumpMetrics(metrics_format);
  return exit_code;
}
