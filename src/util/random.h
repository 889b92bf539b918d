// Deterministic pseudo-random generator (xoshiro256**) used everywhere a
// non-cryptographic stream suffices: data synthesis, sampling, tests, and
// benchmark workloads. Cryptographic randomness lives in crypto/prg.h.
#ifndef PAFS_UTIL_RANDOM_H_
#define PAFS_UTIL_RANDOM_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>


namespace pafs {

// xoshiro256** 1.0 by Blackman & Vigna (public domain algorithm),
// seeded through splitmix64 so any 64-bit seed yields a full state.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ull);

  // Uniform 64-bit word.
  uint64_t NextU64();
  // Uniform in [0, bound). bound must be > 0.
  uint64_t NextU64Below(uint64_t bound);
  // Uniform double in [0, 1).
  double NextDouble();
  // Uniform in [lo, hi] inclusive.
  int NextInt(int lo, int hi);
  // Bernoulli(p).
  bool NextBool(double p = 0.5);
  // Standard normal via Box-Muller.
  double NextGaussian();
  // Index sampled from an unnormalized non-negative weight vector.
  size_t NextCategorical(const std::vector<double>& weights);
  // Fills `out` with uniform bytes (NOT cryptographically secure).
  void FillBytes(uint8_t* out, size_t n);

  // In-place Fisher-Yates shuffle of indices/containers.
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (size_t i = v.size(); i > 1; --i) {
      size_t j = NextU64Below(i);
      std::swap(v[i - 1], v[j]);
    }
  }

 private:
  uint64_t s_[4];
};

}  // namespace pafs

#endif  // PAFS_UTIL_RANDOM_H_
