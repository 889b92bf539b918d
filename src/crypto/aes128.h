// AES-128 (encrypt-only), the permutation inside the garbling hash and the
// PRG core. Two arms behind one interface: a hardware AES-NI kernel that
// pipelines 8 independent blocks per round to hide aesenc latency, and the
// original table-based portable implementation kept as a verified fallback.
// The arm is chosen per call via crypto/cpu_features.h, so the portable
// path stays selectable at runtime (PAFS_FORCE_PORTABLE). This library
// targets protocol research, not constant-time production crypto.
#ifndef PAFS_CRYPTO_AES128_H_
#define PAFS_CRYPTO_AES128_H_

#include <cstddef>
#include <cstdint>

#include "crypto/block.h"

namespace pafs {

class Aes128 {
 public:
  explicit Aes128(const Block& key);

  Block Encrypt(const Block& plaintext) const;

  // Batched ECB encryption of n independent blocks; in == out is allowed.
  // This is the throughput interface: the AES-NI arm runs 8 parallel
  // cipher states per round, so callers should batch as many blocks per
  // call as their data flow permits.
  void EncryptBlocks(const Block* in, Block* out, size_t n) const;

  // Process-wide instance with a fixed public key, as used by fixed-key
  // garbling schemes (Bellare et al., S&P 2013).
  static const Aes128& FixedKeyInstance();

 private:
  // Expanded round keys, byte layout per FIPS-197 (11 x 16 bytes). Both
  // arms read the same expansion, which keeps them bit-identical.
  alignas(16) uint8_t round_keys_[176];
};

}  // namespace pafs

#endif  // PAFS_CRYPTO_AES128_H_
