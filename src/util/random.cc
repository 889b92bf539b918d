#include "util/random.h"

#include <cmath>

#include "util/check.h"

namespace pafs {

namespace {

uint64_t SplitMix64(uint64_t& x) {
  x += 0x9E3779B97F4A7C15ull;
  uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t x = seed;
  for (auto& s : s_) s = SplitMix64(x);
}

uint64_t Rng::NextU64() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

uint64_t Rng::NextU64Below(uint64_t bound) {
  PAFS_CHECK_GT(bound, 0u);
  // Rejection sampling to avoid modulo bias.
  const uint64_t limit = UINT64_MAX - UINT64_MAX % bound;
  uint64_t r;
  do {
    r = NextU64();
  } while (r >= limit);
  return r % bound;
}

double Rng::NextDouble() {
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

int Rng::NextInt(int lo, int hi) {
  PAFS_CHECK_LE(lo, hi);
  return lo + static_cast<int>(NextU64Below(
                  static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo) + 1));
}

bool Rng::NextBool(double p) { return NextDouble() < p; }

double Rng::NextGaussian() {
  double u1 = NextDouble();
  double u2 = NextDouble();
  if (u1 < 1e-300) u1 = 1e-300;
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
}

size_t Rng::NextCategorical(const std::vector<double>& weights) {
  PAFS_CHECK(!weights.empty());
  double total = 0.0;
  for (double w : weights) {
    PAFS_CHECK_GE(w, 0.0);
    total += w;
  }
  PAFS_CHECK_GT(total, 0.0);
  double target = NextDouble() * total;
  double acc = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    acc += weights[i];
    if (target < acc) return i;
  }
  return weights.size() - 1;
}

void Rng::FillBytes(uint8_t* out, size_t n) {
  size_t i = 0;
  while (i + 8 <= n) {
    uint64_t w = NextU64();
    for (int b = 0; b < 8; ++b) out[i + b] = static_cast<uint8_t>(w >> (8 * b));
    i += 8;
  }
  if (i < n) {
    uint64_t w = NextU64();
    for (; i < n; ++i) {
      out[i] = static_cast<uint8_t>(w);
      w >>= 8;
    }
  }
}

}  // namespace pafs
