// Self-test for the benchmark's nearest-rank percentile helper. Runs after
// every benchmark build; exits nonzero on the first failed check.
#include <cstdio>
#include <stdexcept>
#include <vector>

#include "percentile.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "percentile_test: FAILED %s\n", what);
    ++failures;
  }
}

bool Throws(double q, size_t n) {
  try {
    pafs::perfbench::NearestRank(q, n);
  } catch (const std::invalid_argument&) {
    return true;
  }
  return false;
}

}  // namespace

int main() {
  using pafs::perfbench::Mean;
  using pafs::perfbench::Median;
  using pafs::perfbench::NearestRank;
  using pafs::perfbench::Percentile;

  // rank = ceil(q * n), 1-based.
  Expect(NearestRank(0.50, 10) == 5, "p50 of 10 is rank 5");
  Expect(NearestRank(0.50, 11) == 6, "p50 of 11 is rank 6");
  Expect(NearestRank(0.95, 10) == 10, "p95 of 10 is rank 10, not 9");
  Expect(NearestRank(0.95, 20) == 19, "p95 of 20 is rank 19");
  Expect(NearestRank(0.90, 10) == 9, "p90 of 10 is rank 9");
  Expect(NearestRank(0.99, 100) == 99, "p99 of 100 is rank 99");
  Expect(NearestRank(0.99, 101) == 100, "p99 of 101 is rank 100");
  Expect(NearestRank(1.00, 7) == 7, "p100 is the maximum");
  Expect(NearestRank(1e-6, 7) == 1, "a tiny q is the minimum");
  Expect(NearestRank(0.50, 1) == 1, "one sample");
  Expect(Throws(0.5, 0), "empty sample throws");
  Expect(Throws(0.0, 5), "q = 0 throws");
  Expect(Throws(1.5, 5), "q > 1 throws");

  // Values come back unsorted; the helper orders them itself.
  std::vector<double> v = {9, 1, 8, 2, 7, 3, 6, 4, 5, 10};
  Expect(Percentile(v, 0.50) == 5, "p50 of 1..10 is 5");
  Expect(Percentile(v, 0.95) == 10, "p95 of 1..10 is 10");
  Expect(Percentile(v, 0.10) == 1, "p10 of 1..10 is 1");
  Expect(Median({3.5}) == 3.5, "median of one value");
  Expect(Median({2, 1, 3}) == 2, "median of three values");
  Expect(Mean({1, 2, 3, 6}) == 3, "mean");

  // 1000 samples: p99 must be the 990th smallest, p50 the 500th.
  std::vector<double> big;
  for (int i = 1000; i >= 1; --i) big.push_back(i);
  Expect(Percentile(big, 0.99) == 990, "p99 of 1..1000 is 990");
  Expect(Percentile(big, 0.50) == 500, "p50 of 1..1000 is 500");

  if (failures == 0) std::printf("percentile_test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
