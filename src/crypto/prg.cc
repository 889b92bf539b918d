#include "crypto/prg.h"

#include <algorithm>
#include <cstring>

namespace pafs {

void Prg::FillBlocks(Block* out, size_t n) {
  for (size_t i = 0; i < n; ++i) out[i] = Block(counter_++, 0);
  aes_.EncryptBlocks(out, out, n);
}

void Prg::FillBytes(uint8_t* out, size_t n) {
  // Chunked so arbitrarily large requests stay in a fixed stack footprint
  // while still feeding the cipher full batches. Block is 16 contiguous
  // little-endian bytes, so the memcpy below reproduces the per-block
  // ToBytes stream exactly.
  constexpr size_t kChunkBlocks = 256;
  Block buf[kChunkBlocks];
  size_t i = 0;
  while (i < n) {
    size_t blocks = std::min(kChunkBlocks, (n - i + 15) / 16);
    FillBlocks(buf, blocks);
    size_t take = std::min(n - i, blocks * 16);
    std::memcpy(out + i, buf, take);
    i += take;
  }
}

std::vector<uint8_t> Prg::Bytes(size_t n) {
  std::vector<uint8_t> out(n);
  FillBytes(out.data(), n);
  return out;
}

bool Prg::NextBit() {
  // The cache is one keystream block consumed as a 128-bit shift register;
  // a refill every 64 bits would waste the high half of each block.
  if (bits_left_ == 0) {
    bit_cache_ = NextBlock();
    bits_left_ = 128;
  }
  bool bit = bit_cache_.lo & 1ull;
  bit_cache_.lo = (bit_cache_.lo >> 1) | (bit_cache_.hi << 63);
  bit_cache_.hi >>= 1;
  --bits_left_;
  return bit;
}

Block HashBlock(const Block& x, uint64_t tweak) {
  Block input = HashBlockInput(x, tweak);
  return Aes128::FixedKeyInstance().Encrypt(input) ^ input;
}

Block HashBlocks(const Block& x, const Block& y, uint64_t tweak) {
  Block input = HashBlocksInput(x, y, tweak);
  return Aes128::FixedKeyInstance().Encrypt(input) ^ input;
}

void HashBlocksBatch(Block* io, size_t n) {
  constexpr size_t kChunkBlocks = 128;
  Block pi[kChunkBlocks];
  const Aes128& aes = Aes128::FixedKeyInstance();
  for (size_t i = 0; i < n; i += kChunkBlocks) {
    size_t k = std::min(kChunkBlocks, n - i);
    aes.EncryptBlocks(io + i, pi, k);
    for (size_t j = 0; j < k; ++j) io[i + j] ^= pi[j];
  }
}

}  // namespace pafs
