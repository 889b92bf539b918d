// Paillier additively homomorphic cryptosystem (Paillier, Eurocrypt 1999)
// with g = n+1 fast encryption and CRT-accelerated decryption. This is the
// homomorphic half of the hybrid secure linear classifier: the client
// encrypts its feature vector, the server computes the model's dot products
// under encryption, and a small garbled circuit finishes the argmax.
#ifndef PAFS_CRYPTO_PAILLIER_H_
#define PAFS_CRYPTO_PAILLIER_H_

#include <memory>

#include "bignum/bigint.h"
#include "bignum/modmath.h"

namespace pafs {

class Rng;

// Floor on a peer-announced modulus before key/pool state is built from
// it. Well below any real deployment size (512-2048 bits) but enough to
// reject trivially degenerate n; protocol servers must also check the
// modulus is odd, since MontgomeryCtx aborts on an even one.
inline constexpr int kMinPaillierModulusBits = 128;

// Public key plus cached Montgomery state for ciphertext-space arithmetic.
class PaillierPublicKey {
 public:
  PaillierPublicKey(BigInt n);  // NOLINT: implicit conversion never intended,
                                // single-arg for deserialization convenience.

  const BigInt& n() const { return n_; }
  const BigInt& n_squared() const { return n_squared_; }
  // Half of n; plaintexts above this decode as negative.
  const BigInt& half_n() const { return half_n_; }

  // Encrypts m in (-n/2, n/2) with fresh randomness from `rng`.
  BigInt Encrypt(const BigInt& m, Rng& rng) const;
  // Homomorphic addition: Dec(c1 ⊕ c2) = m1 + m2.
  BigInt Add(const BigInt& c1, const BigInt& c2) const;
  // Adds a plaintext constant without encrypting it first.
  BigInt AddPlain(const BigInt& c, const BigInt& m) const;
  // Scalar multiplication: Dec(c ⊗ k) = m * k.
  BigInt MulPlain(const BigInt& c, const BigInt& k) const;
  // Fresh randomness on an existing ciphertext (unlinkability).
  BigInt Rerandomize(const BigInt& c, Rng& rng) const;

  // Offline/online split (see crypto/paillier_pool.h): the expensive half
  // of Encrypt/Rerandomize is the input-independent pad r^n mod n^2, so it
  // can be computed ahead of time and the online op becomes one modular
  // multiply. SamplePadBase makes exactly the draw Encrypt would, keeping
  // pooled and inline encryption byte-identical for the same rng stream.
  BigInt SamplePadBase(Rng& rng) const;          // r uniform in [1, n).
  BigInt ComputePad(const BigInt& r) const;      // r^n mod n^2.
  BigInt EncryptWithPad(const BigInt& m, const BigInt& pad) const;
  BigInt RerandomizeWithPad(const BigInt& c, const BigInt& pad) const;

  // Maps a signed value into Z_n.
  BigInt EncodeSigned(const BigInt& m) const;
  // Maps a Z_n residue back to (-n/2, n/2].
  BigInt DecodeSigned(const BigInt& residue) const;

  // Approximate ciphertext size on the wire.
  size_t CiphertextBytes() const {
    return static_cast<size_t>(n_squared_.BitLength() + 7) / 8;
  }

 private:
  BigInt n_;
  BigInt n_squared_;
  BigInt half_n_;
  std::shared_ptr<MontgomeryCtx> ctx_n2_;  // Shared so keys stay copyable.
};

class PaillierPrivateKey {
 public:
  PaillierPrivateKey(const BigInt& p, const BigInt& q);

  const PaillierPublicKey& public_key() const { return public_key_; }

  // CRT decryption; returns the signed decoding in (-n/2, n/2].
  BigInt Decrypt(const BigInt& c) const;

  // Textbook decryption m = L(c^lambda mod n^2) * mu mod n, working at the
  // full n^2 width instead of splitting through p^2 / q^2. Kept as the
  // differential-testing reference for Decrypt (and the baseline the CRT
  // speedup in bench_e2e is measured against) — not used on any protocol
  // path.
  BigInt DecryptFullWidth(const BigInt& c) const;

 private:
  PaillierPublicKey public_key_;
  BigInt p_, q_;
  BigInt p_squared_, q_squared_;
  BigInt h_p_, h_q_;  // Precomputed L_p(g^{p-1} mod p^2)^{-1} mod p, ditto q.
  BigInt lambda_, mu_;  // Full-width secrets: (p-1)(q-1) and L(g^lambda)^-1.
  std::shared_ptr<MontgomeryCtx> ctx_p2_, ctx_q2_, ctx_n2_;
};

struct PaillierKeyPair {
  // Built via the private key to share precomputation.
  explicit PaillierKeyPair(PaillierPrivateKey key)
      : private_key(std::move(key)), public_key(private_key.public_key()) {}

  PaillierPrivateKey private_key;
  PaillierPublicKey public_key;
};

// Generates a key with an n of `modulus_bits` bits (p, q each half).
PaillierKeyPair GeneratePaillierKey(Rng& rng, int modulus_bits);

}  // namespace pafs

#endif  // PAFS_CRYPTO_PAILLIER_H_
