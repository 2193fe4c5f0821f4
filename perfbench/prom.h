#ifndef PERFBENCH_PROM_H_
#define PERFBENCH_PROM_H_

#include <map>
#include <string>
#include <string_view>

namespace perfbench {

/// Samples of a Prometheus text exposition (the format ptk_server
/// --metrics writes to stderr at EOF), keyed by the full sample name as
/// written, labels included: "ptk_pool_tasks_total",
/// "ptk_engine_semantics_evals_total{semantics=\"ukranks\"}",
/// "ptk_persist_fsync_seconds_count". Comment lines and anything that is
/// not "<name> <number>" are skipped, so stray log lines on the same
/// stream do no harm.
using PromSamples = std::map<std::string, double>;

PromSamples ParsePrometheus(std::string_view text);

/// The value of `name`, or 0 when absent (a family the run never
/// registered counts nothing).
double PromValue(const PromSamples& samples, const std::string& name);

/// Sum over every sample of one family, labels ignored: "ptk_x_total"
/// sums "ptk_x_total" and every "ptk_x_total{...}".
double PromFamilySum(const PromSamples& samples, const std::string& family);

}  // namespace perfbench

#endif  // PERFBENCH_PROM_H_
