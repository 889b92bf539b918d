// Cryptographic pseudo-random generator (AES-128 in counter mode) and the
// correlation-robust hash used by garbling and OT extension. Both expose
// batched entry points layered on Aes128::EncryptBlocks; the scalar forms
// remain for callers that genuinely produce one value at a time.
#ifndef PAFS_CRYPTO_PRG_H_
#define PAFS_CRYPTO_PRG_H_

#include <cstdint>
#include <vector>

#include "crypto/aes128.h"
#include "crypto/block.h"

namespace pafs {

// Expands a 128-bit seed into an unbounded keystream.
class Prg {
 public:
  explicit Prg(const Block& seed) : aes_(seed) {}

  Block NextBlock() { return aes_.Encrypt(Block(counter_++, 0)); }
  // Fills out[0..n) with the next n keystream blocks through the batched
  // cipher; equivalent to n NextBlock() calls.
  void FillBlocks(Block* out, size_t n);
  // Byte keystream; consumes whole blocks, so a partial trailing block
  // advances the counter by one and discards the unused tail bytes.
  void FillBytes(uint8_t* out, size_t n);
  std::vector<uint8_t> Bytes(size_t n);
  bool NextBit();

 private:
  Aes128 aes_;
  uint64_t counter_ = 0;
  Block bit_cache_ = Block::Zero();
  int bits_left_ = 0;
};

// Tweakable correlation-robust hash H(x, tweak) built from the fixed-key AES
// permutation: H(x, t) = pi(2x ^ t) ^ (2x ^ t). Standard for half-gates
// garbling (Zahur-Rosulek-Evans, Eurocrypt 2015).
Block HashBlock(const Block& x, uint64_t tweak);

// Two-input variant for evaluator-side half-gate hashing.
Block HashBlocks(const Block& x, const Block& y, uint64_t tweak);

// Batched in-place hash core: io[i] := pi(io[i]) ^ io[i]. Callers pre-fill
// io with the tweaked inputs (2x ^ t, or 2x ^ 4y ^ t for the two-input
// form) — see HashBlockInput/HashBlocksInput — then one call pipelines the
// whole batch through the fixed-key cipher.
void HashBlocksBatch(Block* io, size_t n);

inline Block HashBlockInput(const Block& x, uint64_t tweak) {
  return x.GfDouble() ^ Block(tweak, 0);
}
inline Block HashBlocksInput(const Block& x, const Block& y, uint64_t tweak) {
  return x.GfDouble() ^ y.GfDouble().GfDouble() ^ Block(tweak, 0);
}

}  // namespace pafs

#endif  // PAFS_CRYPTO_PRG_H_
