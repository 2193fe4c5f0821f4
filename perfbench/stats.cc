#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace perfbench {

double TailPercentile(int64_t n) {
  if (n <= 10) return 100.0;
  const double pct =
      std::floor(1000.0 * (1.0 - 10.0 / static_cast<double>(n))) / 10.0;
  return std::min(pct, 99.9);
}

double PercentileOfSorted(const std::vector<double>& sorted, double pct) {
  const int64_t n = static_cast<int64_t>(sorted.size());
  int64_t rank = static_cast<int64_t>(
      std::ceil(pct / 100.0 * static_cast<double>(n) - 1e-9));
  rank = std::clamp<int64_t>(rank, 1, n);
  return sorted[rank - 1];
}

Summary Summarize(std::vector<double> values) {
  Summary s;
  s.n = static_cast<int64_t>(values.size());
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  s.p50 = PercentileOfSorted(values, 50.0);
  s.tail_pct = TailPercentile(s.n);
  s.tail = s.tail_pct >= 100.0 ? values.back()
                               : PercentileOfSorted(values, s.tail_pct);
  s.max = values.back();
  return s;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return PercentileOfSorted(values, 50.0);
}

std::string FormatNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

}  // namespace perfbench
