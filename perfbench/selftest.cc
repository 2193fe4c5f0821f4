// Self-tests of the benchmark's own code: input determinism, the tail
// percentile rule, the Prometheus export parser, and the output check.
// Run: cmake --build .bench_build --target perfbench_selftest &&
//      .bench_build/perfbench_selftest

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "check.h"
#include "data/csv.h"
#include "prom.h"
#include "serve/protocol.h"
#include "stats.h"
#include "workload.h"

namespace {

int failures = 0;

#define EXPECT(cond)                                                  \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: expected %s\n", __FILE__, __LINE__, \
                   #cond);                                            \
      ++failures;                                                     \
    }                                                                 \
  } while (0)

using namespace perfbench;

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void SameSeedSameInputs(const std::string& dir) {
  for (const WorkloadSpec& spec : AllWorkloads()) {
    const std::string a = dir + "/" + spec.name + "-a.csv";
    const std::string b = dir + "/" + spec.name + "-b.csv";
    const std::string c = dir + "/" + spec.name + "-c.csv";
    WorkloadSpec other_catalog = spec;
    ++other_catalog.catalog_seed;
    EXPECT(WriteCatalogCsv(spec, a).ok());
    EXPECT(WriteCatalogCsv(spec, b).ok());
    EXPECT(WriteCatalogCsv(other_catalog, c).ok());
    EXPECT(!ReadFile(a).empty());
    EXPECT(ReadFile(a) == ReadFile(b));
    EXPECT(ReadFile(a) != ReadFile(c));

    const util::StatusOr<model::Database> db = ptk::data::LoadCsv(a);
    EXPECT(db.ok());
    if (!db.ok()) continue;
    EXPECT(WorldValues(*db, 7, 0) == WorldValues(*db, 7, 0));
    EXPECT(WorldValues(*db, 7, 0) != WorldValues(*db, 7, 1));
    EXPECT(WorldValues(*db, 7, 0) != WorldValues(*db, 8, 0));
    if (spec.loop != WorkloadSpec::Loop::kOpen) continue;
    const std::string first =
        EncodeSchedule(spec, BuildSchedule(spec, *db, 7, 2.0));
    const std::string second =
        EncodeSchedule(spec, BuildSchedule(spec, *db, 7, 2.0));
    const std::string other =
        EncodeSchedule(spec, BuildSchedule(spec, *db, 8, 2.0));
    EXPECT(!first.empty());
    EXPECT(first == second);
    EXPECT(first != other);
  }
}

void TailRule() {
  EXPECT(TailPercentile(10) == 100.0);  // no percentile leaves ten beyond
  EXPECT(TailPercentile(11) == 9.0);
  EXPECT(TailPercentile(20) == 50.0);
  EXPECT(TailPercentile(100) == 90.0);
  EXPECT(TailPercentile(1000) == 99.0);
  EXPECT(TailPercentile(2000) == 99.5);
  EXPECT(TailPercentile(1000000) == 99.9);  // capped
  // At every sample count, at least ten samples lie beyond the tail and
  // the next 0.1 step up would leave fewer than ten.
  for (int n = 11; n <= 3000; n += 7) {
    std::vector<double> values(n);
    for (int i = 0; i < n; ++i) values[i] = n - i;  // distinct, reversed
    const Summary s = Summarize(values);
    int beyond = 0;
    for (const double v : values) beyond += v > s.tail ? 1 : 0;
    EXPECT(beyond >= 10);
    if (s.tail_pct < 99.9) {
      const double next = PercentileOfSorted(
          [&] {
            std::vector<double> sorted = values;
            std::sort(sorted.begin(), sorted.end());
            return sorted;
          }(),
          s.tail_pct + 0.1);
      int beyond_next = 0;
      for (const double v : values) beyond_next += v > next ? 1 : 0;
      EXPECT(beyond_next < 10 || next == s.tail);
    }
    EXPECT(s.p50 == PercentileOfSorted(
                        [&] {
                          std::vector<double> sorted = values;
                          std::sort(sorted.begin(), sorted.end());
                          return sorted;
                        }(),
                        50.0));
  }
  const Summary empty = Summarize({});
  EXPECT(empty.n == 0 && empty.p50 == 0.0);
}

void ExportParser() {
  const std::string text =
      ReadFile(std::string(PERFBENCH_FIXTURE_DIR) + "/metrics.prom");
  EXPECT(!text.empty());
  const PromSamples prom = ParsePrometheus(text);
  EXPECT(PromValue(prom, "ptk_pool_tasks_total") == 4);
  EXPECT(PromValue(prom, "ptk_engine_distribution_builds_total") == 237);
  EXPECT(PromValue(prom, "ptk_engine_distribution_memo_hits_total") == 1278);
  EXPECT(PromValue(prom, "ptk_persist_fsync_seconds_count") == 471);
  EXPECT(PromValue(prom, "ptk_persist_wal_bytes_total") == 25092);
  EXPECT(PromValue(prom, "ptk_no_such_metric_total") == 0.0);
  // Labelled families sum over their label sets.
  EXPECT(PromValue(prom,
                   "ptk_serve_shard_coalesced_folds_total{shard=\"1\"}") ==
         144);
  EXPECT(PromFamilySum(prom, "ptk_serve_shard_coalesced_folds_total") ==
         123 + 144);
  EXPECT(PromFamilySum(prom, "ptk_engine_semantics_evals_total") == 0);
  // A histogram's cumulative buckets keep their label in the name.
  EXPECT(PromValue(prom, "ptk_persist_fsync_seconds_bucket{le=\"+Inf\"}") ==
         471);
  // Comments, blank lines and stray log lines are skipped.
  const PromSamples noisy = ParsePrometheus(
      "# HELP x y\n\nrecovered 2 session(s) from dir\nptk_x_total 3\n"
      "ptk_y{a=\"b c\"} 1.5\nnot a number here\n");
  EXPECT(noisy.size() == 2);
  EXPECT(PromValue(noisy, "ptk_x_total") == 3);
  EXPECT(PromValue(noisy, "ptk_y{a=\"b c\"}") == 1.5);
}

void OutputCheckCatchesOneFlippedBit() {
  WorkloadSpec spec = *FindWorkload("clean_opt");
  spec.m = 60;
  spec.value_range = 150.0;
  const model::Database db = MakeCatalog(spec);
  const std::vector<double> world = WorldValues(db, 3, 0);

  // The "server": a session manager the check does not share.
  serve::SessionManager server(db, ManagerOptions(spec));
  SessionLog log;
  auto exchange = [&](serve::Request request) {
    request.id = "t" + std::to_string(log.exchanges.size());
    if (request.op != serve::Op::kCreateSession) request.session = log.session;
    Exchange ex;
    ex.request = request;
    ex.response = serve::ExecuteRequest(server, nullptr, request);
    if (const auto* created =
            std::get_if<serve::Response::Created>(&ex.response.payload)) {
      log.session = created->session;
    }
    log.exchanges.push_back(std::move(ex));
    return log.exchanges.back().response;
  };
  serve::Request request;
  request.op = serve::Op::kCreateSession;
  exchange(request);
  request.op = serve::Op::kQuality;
  exchange(request);
  request.op = serve::Op::kNextPairs;
  request.count = 3;
  const serve::Response pairs = exchange(request);
  request.op = serve::Op::kPostAnswers;
  for (const auto& p : std::get<serve::Response::Pairs>(pairs.payload).pairs) {
    request.answers.push_back(Orient(world, p.a, p.b));
  }
  exchange(request);
  request.op = serve::Op::kQuality;
  exchange(request);
  request.op = serve::Op::kDistribution;
  request.limit = 3;
  exchange(request);

  for (const serve::WireFormat wire :
       {serve::WireFormat::kBinary, serve::WireFormat::kJsonLines}) {
    SessionLog received = log;
    for (Exchange& ex : received.exchanges) {
      ex.response = OnTheWire(ex.response, wire);
    }
    Reference clean_reference(db, spec, nullptr);
    const CheckReport clean =
        CheckSessions(clean_reference, {received}, spec.k, wire);
    EXPECT(clean.ok());
    EXPECT(clean.compared == 6);
  }

  // One flipped low-order bit of the last quality value.
  SessionLog flipped = log;
  auto& quality =
      std::get<serve::Response::Quality>(flipped.exchanges[4].response.payload)
          .quality;
  uint64_t bits;
  std::memcpy(&bits, &quality, sizeof(bits));
  bits ^= 1;
  std::memcpy(&quality, &bits, sizeof(bits));
  Reference reference(db, spec, nullptr);
  const CheckReport caught =
      CheckSessions(reference, {flipped}, spec.k, serve::WireFormat::kBinary);
  EXPECT(!caught.ok());
  EXPECT(caught.mismatches == 1);

  // An invariant: the same pair handed out twice.
  SessionLog repeated = log;
  auto& handed =
      std::get<serve::Response::Pairs>(repeated.exchanges[2].response.payload)
          .pairs;
  handed.push_back(handed.front());
  Reference another(db, spec, nullptr);
  const CheckReport twice =
      CheckSessions(another, {repeated}, spec.k, serve::WireFormat::kBinary);
  EXPECT(twice.violations >= 1);
}

}  // namespace

int main() {
  const std::string dir = PERFBENCH_SELFTEST_DIR;
  std::filesystem::create_directories(dir);
  SameSeedSameInputs(dir);
  TailRule();
  ExportParser();
  OutputCheckCatchesOneFlippedBit();
  std::filesystem::remove_all(dir);
  if (failures == 0) std::printf("perfbench_selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
