#include "bignum/modmath.h"

#include <utility>

#include "util/check.h"

namespace pafs {

BigInt Mod(const BigInt& a, const BigInt& m) {
  PAFS_CHECK(m > BigInt(0));
  BigInt r = a % m;
  if (r.is_negative()) r += m;
  return r;
}

BigInt ModAdd(const BigInt& a, const BigInt& b, const BigInt& m) {
  return Mod(a + b, m);
}

BigInt ModMul(const BigInt& a, const BigInt& b, const BigInt& m) {
  return Mod(a * b, m);
}

BigInt Gcd(BigInt a, BigInt b) {
  if (a.is_negative()) a = -a;
  if (b.is_negative()) b = -b;
  while (!b.is_zero()) {
    BigInt r = a % b;
    a = std::move(b);
    b = std::move(r);
  }
  return a;
}

BigInt Lcm(const BigInt& a, const BigInt& b) {
  if (a.is_zero() || b.is_zero()) return BigInt(0);
  return (a * b) / Gcd(a, b);
}

bool TryModInverse(const BigInt& a, const BigInt& m, BigInt* out) {
  PAFS_CHECK(m > BigInt(1));
  // Extended Euclid tracking only the coefficient of a.
  BigInt r0 = m, r1 = Mod(a, m);
  BigInt t0(0), t1(1);
  while (!r1.is_zero()) {
    BigInt q = r0 / r1;
    BigInt r2 = r0 - q * r1;
    BigInt t2 = t0 - q * t1;
    r0 = std::move(r1);
    r1 = std::move(r2);
    t0 = std::move(t1);
    t1 = std::move(t2);
  }
  if (r0 != BigInt(1)) return false;
  *out = Mod(t0, m);
  return true;
}

BigInt ModInverse(const BigInt& a, const BigInt& m) {
  BigInt out;
  PAFS_CHECK_MSG(TryModInverse(a, m, &out), "modular inverse does not exist");
  return out;
}

BigInt CrtCombine(const BigInt& r_p, const BigInt& p, const BigInt& r_q,
                  const BigInt& q) {
  // x = r_p + p * ((r_q - r_p) * p^{-1} mod q)
  BigInt p_inv_q = ModInverse(p, q);
  BigInt diff = Mod(r_q - r_p, q);
  return r_p + p * ModMul(diff, p_inv_q, q);
}

namespace {

// -m^{-1} mod 2^32 for odd m, via Newton iteration on 32-bit words.
uint32_t NegInverseU32(uint32_t m) {
  uint32_t inv = m;  // Correct to 3 bits.
  for (int i = 0; i < 5; ++i) inv *= 2u - m * inv;
  return ~inv + 1;  // == -inv mod 2^32
}

// Window width for a sliding-window exponentiation: balances the
// 2^(w-1)-entry odd-power table build against bits/(w+1) saved multiplies.
int WindowBitsFor(int exp_bits) {
  if (exp_bits <= 6) return 1;
  if (exp_bits <= 24) return 2;
  if (exp_bits <= 80) return 3;
  if (exp_bits <= 240) return 4;
  return 5;
}

}  // namespace

MontgomeryCtx::MontgomeryCtx(const BigInt& modulus) : modulus_(modulus) {
  PAFS_CHECK(modulus > BigInt(1));
  PAFS_CHECK_MSG(modulus.is_odd(), "Montgomery requires an odd modulus");
  m_limbs_ = modulus.limbs();
  k_ = m_limbs_.size();
  n0_inv_ = NegInverseU32(m_limbs_[0]);
  // R = 2^(32k); R mod m and R^2 mod m computed once via plain division.
  BigInt r = BigInt(1) << static_cast<int>(32 * k_);
  one_mont_ = (r % modulus_).limbs();
  one_mont_.resize(k_, 0);
  r2_mont_ = ((r * r) % modulus_).limbs();
  r2_mont_.resize(k_, 0);
  one_.assign(k_, 0);
  one_[0] = 1;
}

std::vector<uint32_t> MontgomeryCtx::ToMont(const BigInt& x) const {
  // x*R = MontMul(x, R^2) — one multiply instead of a shifted division.
  std::vector<uint32_t> reduced = Mod(x, modulus_).limbs();
  reduced.resize(k_, 0);
  std::vector<uint32_t> out(k_);
  std::vector<uint32_t> scratch(k_ + 2);
  MontMulInto(reduced.data(), r2_mont_.data(), out.data(), scratch.data());
  return out;
}

BigInt MontgomeryCtx::FromMont(const std::vector<uint32_t>& x_mont) const {
  // Multiplying by literal 1 strips the R factor.
  PAFS_CHECK_EQ(x_mont.size(), k_);
  std::vector<uint32_t> stripped(k_);
  std::vector<uint32_t> scratch(k_ + 2);
  MontMulInto(x_mont.data(), one_.data(), stripped.data(), scratch.data());
  return BigInt::FromLimbs(std::move(stripped));
}

std::vector<uint32_t> MontgomeryCtx::MontMul(
    const std::vector<uint32_t>& a, const std::vector<uint32_t>& b) const {
  PAFS_CHECK_EQ(a.size(), k_);
  PAFS_CHECK_EQ(b.size(), k_);
  std::vector<uint32_t> out(k_);
  std::vector<uint32_t> scratch(k_ + 2);
  MontMulInto(a.data(), b.data(), out.data(), scratch.data());
  return out;
}

void MontgomeryCtx::MontMulInto(const uint32_t* a, const uint32_t* b,
                                uint32_t* out, uint32_t* t) const {
  // CIOS (coarsely integrated operand scanning), Koç et al. 1996. The
  // product accumulates in t (k+2 limbs), so out may alias a or b.
  const size_t k = k_;
  const uint32_t* m = m_limbs_.data();
  for (size_t i = 0; i < k + 2; ++i) t[i] = 0;
  for (size_t i = 0; i < k; ++i) {
    uint64_t carry = 0;
    uint64_t a_i = a[i];
    for (size_t j = 0; j < k; ++j) {
      uint64_t cur = t[j] + a_i * b[j] + carry;
      t[j] = static_cast<uint32_t>(cur);
      carry = cur >> 32;
    }
    uint64_t cur = t[k] + carry;
    t[k] = static_cast<uint32_t>(cur);
    t[k + 1] = static_cast<uint32_t>(cur >> 32);

    uint32_t mu = static_cast<uint32_t>(t[0] * n0_inv_);
    cur = t[0] + static_cast<uint64_t>(mu) * m[0];
    carry = cur >> 32;
    for (size_t j = 1; j < k; ++j) {
      cur = t[j] + static_cast<uint64_t>(mu) * m[j] + carry;
      t[j - 1] = static_cast<uint32_t>(cur);
      carry = cur >> 32;
    }
    cur = t[k] + carry;
    t[k - 1] = static_cast<uint32_t>(cur);
    carry = cur >> 32;
    t[k] = t[k + 1] + static_cast<uint32_t>(carry);
    t[k + 1] = 0;
  }
  // Conditional final subtraction brings the result below m.
  bool needs_sub = t[k] != 0;
  if (!needs_sub) {
    needs_sub = true;
    for (size_t i = k; i-- > 0;) {
      if (t[i] != m[i]) {
        needs_sub = t[i] > m[i];
        break;
      }
    }
  }
  if (needs_sub) {
    // CIOS guarantees t < 2m, so one subtraction suffices; a borrow out of
    // the low k limbs cancels against the t[k] overflow word.
    int64_t borrow = 0;
    for (size_t i = 0; i < k; ++i) {
      int64_t diff = static_cast<int64_t>(t[i]) - static_cast<int64_t>(m[i]) -
                     borrow;
      if (diff < 0) {
        diff += 1ll << 32;
        borrow = 1;
      } else {
        borrow = 0;
      }
      out[i] = static_cast<uint32_t>(diff);
    }
  } else {
    for (size_t i = 0; i < k; ++i) out[i] = t[i];
  }
}

BigInt MontgomeryCtx::Exp(const BigInt& a, const BigInt& e) const {
  PAFS_CHECK(!e.is_negative());
  if (e.is_zero()) return Mod(BigInt(1), modulus_);
  const int bits = e.BitLength();
  const int w = WindowBitsFor(bits);
  const size_t npow = size_t{1} << (w - 1);

  // Per-exp scratch, allocated once: the odd-power table pow[i] = a^(2i+1),
  // the accumulator, one squaring temp, and the CIOS scratch.
  std::vector<uint32_t> base = ToMont(a);
  std::vector<uint32_t> table(npow * k_);
  std::vector<uint32_t> acc(k_);
  std::vector<uint32_t> sq(k_);
  std::vector<uint32_t> scratch(k_ + 2);
  uint32_t* t = scratch.data();

  for (size_t i = 0; i < k_; ++i) table[i] = base[i];
  if (npow > 1) {
    // a^2, then odd powers a^3, a^5, ... by repeated multiplication.
    MontMulInto(base.data(), base.data(), sq.data(), t);
    for (size_t i = 1; i < npow; ++i) {
      MontMulInto(&table[(i - 1) * k_], sq.data(), &table[i * k_], t);
    }
  }

  // Sliding window, most-significant bit first: zeros cost one squaring
  // each; a set bit opens a w-wide window shrunk to end on a set bit, so
  // every table lookup hits an odd power.
  bool started = false;
  int i = bits - 1;
  while (i >= 0) {
    if (!e.GetBit(i)) {
      if (started) MontMulInto(acc.data(), acc.data(), acc.data(), t);
      --i;
      continue;
    }
    int j = i - w + 1;
    if (j < 0) j = 0;
    while (!e.GetBit(j)) ++j;
    uint32_t window = 0;
    for (int b = i; b >= j; --b) {
      window = (window << 1) | (e.GetBit(b) ? 1u : 0u);
    }
    const uint32_t* entry = &table[(window >> 1) * k_];
    if (started) {
      for (int b = i; b >= j; --b) {
        MontMulInto(acc.data(), acc.data(), acc.data(), t);
      }
      MontMulInto(acc.data(), entry, acc.data(), t);
    } else {
      for (size_t l = 0; l < k_; ++l) acc[l] = entry[l];
      started = true;
    }
    i = j - 1;
  }
  return FromMont(acc);
}

BigInt MontgomeryCtx::ExpBinary(const BigInt& a, const BigInt& e) const {
  PAFS_CHECK(!e.is_negative());
  if (e.is_zero()) return Mod(BigInt(1), modulus_);
  std::vector<uint32_t> base = ToMont(a);
  std::vector<uint32_t> acc = one_mont_;  // Montgomery form of 1.
  for (int i = e.BitLength() - 1; i >= 0; --i) {
    acc = MontMul(acc, acc);
    if (e.GetBit(i)) acc = MontMul(acc, base);
  }
  return FromMont(acc);
}

BigInt ModExp(const BigInt& a, const BigInt& e, const BigInt& m) {
  PAFS_CHECK(m > BigInt(0));
  PAFS_CHECK(!e.is_negative());
  if (m == BigInt(1)) return BigInt(0);
  if (m.is_odd()) {
    MontgomeryCtx ctx(m);
    return ctx.Exp(a, e);
  }
  // Even modulus: plain square-and-multiply with trial division. Rare path;
  // all protocol moduli (Paillier n^2) are odd.
  BigInt base = Mod(a, m);
  BigInt acc(1);
  for (int i = e.BitLength() - 1; i >= 0; --i) {
    acc = ModMul(acc, acc, m);
    if (e.GetBit(i)) acc = ModMul(acc, base, m);
  }
  return acc;
}

}  // namespace pafs
