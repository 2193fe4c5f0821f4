#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Summary of one class of timings (or sizes): sample count, median, and
/// the tail percentile the sample count supports.
///
/// The tail rule: `tail_pct` is the highest percentile, in steps of 0.1,
/// that leaves at least ten samples strictly beyond it, i.e.
/// floor(1000 * (1 - 10/n)) / 10, capped at 99.9. With ten or fewer
/// samples no percentile qualifies; the summary then reports the maximum
/// as the tail and tail_pct = 100 so the reader sees the rule did not hold.
struct Summary {
  int64_t n = 0;
  double p50 = 0.0;
  double tail = 0.0;
  double tail_pct = 0.0;
  double max = 0.0;
};

/// The tail percentile for `n` samples (see Summary); 100 when n <= 10.
double TailPercentile(int64_t n);

/// Nearest-rank percentile of `sorted` (ascending, non-empty): the value
/// at index ceil(pct/100 * n) - 1, clamped into range.
double PercentileOfSorted(const std::vector<double>& sorted, double pct);

/// Summarizes `values` (any order). An empty input yields all zeros.
Summary Summarize(std::vector<double> values);

/// Median of `values`; 0 for an empty input.
double Median(std::vector<double> values);

/// Number formatting shared by the JSON writers: shortest round-trip
/// representation ("%.17g" trimmed), never NaN/inf (those print as 0).
std::string FormatNumber(double v);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
