// Nearest-rank percentiles for the serving benchmark. The q-quantile of n
// samples is the sample at 1-based rank ceil(q * n) of the sorted values,
// so every reported percentile is a latency that was actually observed and
// a tail is never under-reported by truncating the rank (for n = 10, p95 is
// the 10th sample, not the 9th).
#ifndef PAFS_PERFBENCH_PERCENTILE_H_
#define PAFS_PERFBENCH_PERCENTILE_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <utility>
#include <vector>

namespace pafs::perfbench {

// 1-based nearest rank of quantile q over n samples, clamped to [1, n].
// The small epsilon keeps products such as 0.95 * 20 from rounding up a
// whole rank when q has no exact binary representation.
inline size_t NearestRank(double q, size_t n) {
  if (n == 0) throw std::invalid_argument("NearestRank: no samples");
  if (!(q > 0.0 && q <= 1.0)) {
    throw std::invalid_argument("NearestRank: q must be in (0, 1]");
  }
  double rank = std::ceil(q * static_cast<double>(n) - 1e-9);
  if (rank < 1.0) return 1;
  if (rank > static_cast<double>(n)) return n;
  return static_cast<size_t>(rank);
}

// The q-quantile of `values` (any order; taken by value and partially
// sorted in place). Throws std::invalid_argument on an empty sample.
inline double Percentile(std::vector<double> values, double q) {
  size_t rank = NearestRank(q, values.size());
  auto nth = values.begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(values.begin(), nth, values.end());
  return *nth;
}

inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

inline double Mean(const std::vector<double>& values) {
  if (values.empty()) throw std::invalid_argument("Mean: no samples");
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

}  // namespace pafs::perfbench

#endif  // PAFS_PERFBENCH_PERCENTILE_H_
