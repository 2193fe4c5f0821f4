#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <string>
#include <vector>

#include "check.h"
#include "workload.h"

namespace perfbench {

/// Layer timings from replaying each distinct session script of a run on
/// objects the benchmark owns, one call at a time:
///   * an engine::RankingEngine with the server's options and shared base
///     artifacts (Fold, Distribution, Quality; counters() tells
///     conditioned-distribution builds from memo hits, and
///     constraints().Components() gives component sizes);
///   * for non-default objectives, a core::MakeSemantics object over the
///     engine's databases (PairImprovement for every handed-out pair,
///     Uncertainty at every quality read);
///   * when the workload persists, a persist::SessionStore fed the records
///     the server journals (Append per record, Sync per acknowledged
///     batch, TakeSnapshot at the snapshot boundary).
/// Durations are in the unit each field names.
struct LayerReplay {
  std::vector<double> fold_us;
  std::vector<double> distribution_build_ms;
  std::vector<double> distribution_sets;  // sets per conditioned build
  std::vector<double> pair_improvement_us;
  std::vector<double> uncertainty_ms;
  std::vector<double> append_us;
  std::vector<double> fsync_ms;
  int max_component = 0;  // objects in the largest constraint component
  int sessions = 0;       // distinct scripts replayed
};

LayerReplay ReplayLayers(const WorkloadSpec& spec, const model::Database& db,
                         const std::vector<SessionLog>& logs,
                         const std::string& journal_root);

/// Largest connected component (in objects) of any session's applied
/// answers — the quantity exact conditioning cost grows with
/// exponentially (pw/joint_component.h). Computed from the logs alone.
int MaxAnswerComponent(const std::vector<SessionLog>& logs);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
