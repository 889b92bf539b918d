// Modular arithmetic over BigInt: GCD/inverse, CRT recombination, and a
// Montgomery-reduction context that makes modular exponentiation fast enough
// for Paillier keys in the 512-2048 bit range.
#ifndef PAFS_BIGNUM_MODMATH_H_
#define PAFS_BIGNUM_MODMATH_H_

#include <cstdint>
#include <vector>

#include "bignum/bigint.h"

namespace pafs {

// Non-negative remainder of a mod m (m > 0).
BigInt Mod(const BigInt& a, const BigInt& m);
BigInt ModAdd(const BigInt& a, const BigInt& b, const BigInt& m);
BigInt ModMul(const BigInt& a, const BigInt& b, const BigInt& m);

BigInt Gcd(BigInt a, BigInt b);
BigInt Lcm(const BigInt& a, const BigInt& b);

// Inverse of a mod m; dies if gcd(a, m) != 1.
BigInt ModInverse(const BigInt& a, const BigInt& m);
// Like ModInverse but reports failure instead of dying.
bool TryModInverse(const BigInt& a, const BigInt& m, BigInt* out);

// a^e mod m for e >= 0. Uses Montgomery reduction when m is odd.
BigInt ModExp(const BigInt& a, const BigInt& e, const BigInt& m);

// Solves x = r_p (mod p), x = r_q (mod q) for coprime p, q.
BigInt CrtCombine(const BigInt& r_p, const BigInt& p, const BigInt& r_q,
                  const BigInt& q);

// Reusable Montgomery state for a fixed odd modulus. Exposing this lets
// Paillier amortize the per-modulus setup across thousands of operations.
//
// Thread safety: all methods are const and allocate any scratch they need
// per call, so one context may serve concurrent exponentiations (Paillier
// keys share theirs through a shared_ptr).
class MontgomeryCtx {
 public:
  explicit MontgomeryCtx(const BigInt& modulus);

  const BigInt& modulus() const { return modulus_; }
  // Limb count of the modulus; every Montgomery-form vector has this size.
  size_t limbs() const { return k_; }

  // x -> x*R mod m, with x reduced mod m first.
  std::vector<uint32_t> ToMont(const BigInt& x) const;
  BigInt FromMont(const std::vector<uint32_t>& x_mont) const;

  // Montgomery product: a*b*R^{-1} mod m, operands in Montgomery form.
  std::vector<uint32_t> MontMul(const std::vector<uint32_t>& a,
                                const std::vector<uint32_t>& b) const;

  // Allocation-free core behind MontMul: a, b, out are k limbs, scratch is
  // k+2 limbs. out may alias a and/or b (the product lands in scratch
  // before out is written). Expert API for tight exponentiation loops.
  void MontMulInto(const uint32_t* a, const uint32_t* b, uint32_t* out,
                   uint32_t* scratch) const;

  // a^e mod m (a any sign/size; result in normal form). Sliding fixed-width
  // window over a precomputed odd-power table; the window width is picked
  // from the exponent length and all scratch is allocated once per call.
  //
  // NOT constant-time in the exponent: the window scan branches on
  // exponent bits and the table lookup address depends on exponent digits,
  // so a local or cross-VM adversary timing caches could learn bits of e.
  // (ExpBinary branches per bit too — the window widens the profile, it
  // does not introduce it.) This matches the project threat model of
  // semi-honest *network* peers (DESIGN.md): the secret-exponent caller —
  // the Paillier pad r — accepts it. If co-residency ever enters
  // the threat model, switch these lookups to a constant-time full-table
  // scan before reusing this code.
  BigInt Exp(const BigInt& a, const BigInt& e) const;

  // Plain binary square-and-multiply ladder, kept as the differential-test
  // reference for Exp. Same contract, including non-constant-time (the
  // multiply happens only on set exponent bits).
  BigInt ExpBinary(const BigInt& a, const BigInt& e) const;

 private:
  BigInt modulus_;
  std::vector<uint32_t> m_limbs_;  // Padded to k_ limbs.
  size_t k_;                       // Limb count of the modulus.
  uint32_t n0_inv_;                // -m^{-1} mod 2^32.
  std::vector<uint32_t> one_mont_;  // R mod m: Montgomery form of 1.
  std::vector<uint32_t> one_;       // Literal 1, padded; FromMont operand.
  std::vector<uint32_t> r2_mont_;   // R^2 mod m: ToMont via one MontMul.
};

}  // namespace pafs

#endif  // PAFS_BIGNUM_MODMATH_H_
