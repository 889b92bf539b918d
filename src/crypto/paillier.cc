#include "crypto/paillier.h"

#include "bignum/prime.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/random.h"

namespace pafs {

namespace {

// L(x) = (x - 1) / m, defined on x = 1 mod m.
BigInt LFunction(const BigInt& x, const BigInt& m) { return (x - BigInt(1)) / m; }

}  // namespace

PaillierPublicKey::PaillierPublicKey(BigInt n)
    : n_(std::move(n)),
      n_squared_(n_ * n_),
      half_n_(n_ >> 1),
      ctx_n2_(std::make_shared<MontgomeryCtx>(n_squared_)) {
  PAFS_CHECK(n_.is_odd());
}

BigInt PaillierPublicKey::EncodeSigned(const BigInt& m) const {
  if (!m.is_negative()) {
    PAFS_CHECK_MSG(m <= half_n_, "plaintext too large for modulus");
    return m;
  }
  BigInt magnitude = -m;
  PAFS_CHECK_MSG(magnitude <= half_n_, "plaintext too negative for modulus");
  return n_ - magnitude;
}

BigInt PaillierPublicKey::DecodeSigned(const BigInt& residue) const {
  PAFS_CHECK(!residue.is_negative());
  PAFS_CHECK(residue < n_);
  if (residue > half_n_) return residue - n_;
  return residue;
}

BigInt PaillierPublicKey::Encrypt(const BigInt& m, Rng& rng) const {
  obs::TraceSpan span("paillier.encrypt");
  static obs::Counter& ops = obs::GetCounter("paillier.encrypt");
  ops.Add();
  return EncryptWithPad(m, ComputePad(SamplePadBase(rng)));
}

BigInt PaillierPublicKey::SamplePadBase(Rng& rng) const {
  // r uniform in [1, n); with overwhelming probability gcd(r, n) = 1.
  return BigInt::RandomBelow(rng, n_ - BigInt(1)) + BigInt(1);
}

BigInt PaillierPublicKey::ComputePad(const BigInt& r) const {
  obs::TraceSpan span("paillier.pad");
  return ctx_n2_->Exp(r, n_);
}

BigInt PaillierPublicKey::EncryptWithPad(const BigInt& m,
                                         const BigInt& pad) const {
  BigInt encoded = EncodeSigned(m);
  // With g = n+1, g^m = 1 + m*n (mod n^2): one multiplication, no modexp.
  BigInt g_to_m = Mod(BigInt(1) + encoded * n_, n_squared_);
  return ModMul(g_to_m, pad, n_squared_);
}

BigInt PaillierPublicKey::RerandomizeWithPad(const BigInt& c,
                                             const BigInt& pad) const {
  return ModMul(c, pad, n_squared_);
}

BigInt PaillierPublicKey::Add(const BigInt& c1, const BigInt& c2) const {
  obs::TraceSpan span("paillier.add");
  static obs::Counter& ops = obs::GetCounter("paillier.add");
  ops.Add();
  // Through the Montgomery context: ModMul's long division cost ~5x the
  // mul_plain beside it, more than the add is worth.
  return ctx_n2_->FromMont(
      ctx_n2_->MontMul(ctx_n2_->ToMont(c1), ctx_n2_->ToMont(c2)));
}

BigInt PaillierPublicKey::AddPlain(const BigInt& c, const BigInt& m) const {
  obs::TraceSpan span("paillier.add_plain");
  static obs::Counter& ops = obs::GetCounter("paillier.add_plain");
  ops.Add();
  BigInt encoded = EncodeSigned(m);
  BigInt g_to_m = Mod(BigInt(1) + encoded * n_, n_squared_);
  return ModMul(c, g_to_m, n_squared_);
}

BigInt PaillierPublicKey::MulPlain(const BigInt& c, const BigInt& k) const {
  obs::TraceSpan span("paillier.mul_plain");
  static obs::Counter& ops = obs::GetCounter("paillier.mul_plain");
  ops.Add();
  BigInt encoded = EncodeSigned(k);
  return ctx_n2_->Exp(c, encoded);
}

BigInt PaillierPublicKey::Rerandomize(const BigInt& c, Rng& rng) const {
  obs::TraceSpan span("paillier.rerandomize");
  static obs::Counter& ops = obs::GetCounter("paillier.rerandomize");
  ops.Add();
  return RerandomizeWithPad(c, ComputePad(SamplePadBase(rng)));
}

PaillierPrivateKey::PaillierPrivateKey(const BigInt& p, const BigInt& q)
    : public_key_(p * q),
      p_(p),
      q_(q),
      p_squared_(p * p),
      q_squared_(q * q),
      ctx_p2_(std::make_shared<MontgomeryCtx>(p_squared_)),
      ctx_q2_(std::make_shared<MontgomeryCtx>(q_squared_)),
      ctx_n2_(std::make_shared<MontgomeryCtx>(public_key_.n_squared())) {
  PAFS_CHECK(p != q);
  const BigInt& n = public_key_.n();
  // h_p = L_p(g^{p-1} mod p^2)^{-1} mod p with g = n+1.
  BigInt g = n + BigInt(1);
  BigInt gp = ctx_p2_->Exp(g, p_ - BigInt(1));
  h_p_ = ModInverse(LFunction(gp, p_), p_);
  BigInt gq = ctx_q2_->Exp(g, q_ - BigInt(1));
  h_q_ = ModInverse(LFunction(gq, q_), q_);
  // Full-width secrets for the reference DecryptFullWidth path.
  lambda_ = (p_ - BigInt(1)) * (q_ - BigInt(1));
  mu_ = ModInverse(LFunction(ctx_n2_->Exp(g, lambda_), n), n);
}

BigInt PaillierPrivateKey::Decrypt(const BigInt& c) const {
  obs::TraceSpan span("paillier.decrypt");
  static obs::Counter& ops = obs::GetCounter("paillier.decrypt");
  ops.Add();
  PAFS_CHECK(!c.is_negative());
  PAFS_CHECK(c < public_key_.n_squared());
  // CRT: recover m mod p and m mod q independently, then recombine.
  BigInt cp = ctx_p2_->Exp(c, p_ - BigInt(1));
  BigInt m_p = ModMul(LFunction(cp, p_), h_p_, p_);
  BigInt cq = ctx_q2_->Exp(c, q_ - BigInt(1));
  BigInt m_q = ModMul(LFunction(cq, q_), h_q_, q_);
  BigInt m = CrtCombine(m_p, p_, m_q, q_);
  return public_key_.DecodeSigned(m);
}

BigInt PaillierPrivateKey::DecryptFullWidth(const BigInt& c) const {
  obs::TraceSpan span("paillier.decrypt_full");
  PAFS_CHECK(!c.is_negative());
  PAFS_CHECK(c < public_key_.n_squared());
  // One exponentiation at n^2 width with a lambda-sized exponent — roughly
  // 4x the modular-multiply cost of each half-width CRT exponentiation,
  // which is exactly the gap bench_e2e reports.
  BigInt c_lambda = ctx_n2_->Exp(c, lambda_);
  BigInt m = ModMul(LFunction(c_lambda, public_key_.n()), mu_,
                    public_key_.n());
  return public_key_.DecodeSigned(m);
}

PaillierKeyPair GeneratePaillierKey(Rng& rng, int modulus_bits) {
  PAFS_CHECK_GE(modulus_bits, 64);
  PAFS_CHECK_EQ(modulus_bits % 2, 0);
  while (true) {
    BigInt p = RandomPrime(rng, modulus_bits / 2);
    BigInt q = RandomPrime(rng, modulus_bits / 2);
    if (p == q) continue;
    // g = n+1 requires gcd(n, lambda) = 1, which holds when p, q are
    // distinct primes of equal size (gcd(pq, (p-1)(q-1)) = 1).
    if (Gcd(p * q, (p - BigInt(1)) * (q - BigInt(1))) != BigInt(1)) continue;
    return PaillierKeyPair(PaillierPrivateKey(p, q));
  }
}

}  // namespace pafs
