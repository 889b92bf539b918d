// Unit tests for src/crypto: AES-128 against FIPS-197 vectors, SHA-256
// against FIPS 180-4 vectors, PRG determinism, garbling hash properties,
// and Paillier homomorphic identities and pad pools.
#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "crypto/aes128.h"
#include "crypto/block.h"
#include "crypto/paillier.h"
#include "crypto/paillier_pool.h"
#include "crypto/prg.h"
#include "crypto/sha256.h"
#include "util/random.h"

namespace pafs {
namespace {

Block BlockFromHexBytes(const std::string& hex) {
  // Interprets the hex string as 16 bytes in order (byte 0 first).
  uint8_t bytes[16];
  for (int i = 0; i < 16; ++i) {
    bytes[i] = static_cast<uint8_t>(
        std::stoi(hex.substr(2 * i, 2), nullptr, 16));
  }
  return Block::FromBytes(bytes);
}

TEST(Aes128Test, Fips197AppendixCVector) {
  // FIPS-197 C.1: key 000102...0f, plaintext 00112233445566778899aabbccddeeff.
  Block key = BlockFromHexBytes("000102030405060708090a0b0c0d0e0f");
  Block pt = BlockFromHexBytes("00112233445566778899aabbccddeeff");
  Block expected = BlockFromHexBytes("69c4e0d86a7b0430d8cdb78070b4c55a");
  Aes128 aes(key);
  EXPECT_EQ(aes.Encrypt(pt), expected);
}

TEST(Aes128Test, Fips197AppendixBVector) {
  // FIPS-197 appendix B: key 2b7e151628aed2a6abf7158809cf4f3c.
  Block key = BlockFromHexBytes("2b7e151628aed2a6abf7158809cf4f3c");
  Block pt = BlockFromHexBytes("3243f6a8885a308d313198a2e0370734");
  Block expected = BlockFromHexBytes("3925841d02dc09fbdc118597196a0b32");
  Aes128 aes(key);
  EXPECT_EQ(aes.Encrypt(pt), expected);
}

TEST(Aes128Test, DifferentKeysDifferentCiphertexts) {
  Block pt(123, 456);
  Block c1 = Aes128(Block(1, 0)).Encrypt(pt);
  Block c2 = Aes128(Block(2, 0)).Encrypt(pt);
  EXPECT_NE(c1, c2);
}

TEST(BlockTest, XorAndLsb) {
  Block a(0b1010, 7);
  Block b(0b0110, 5);
  EXPECT_EQ((a ^ b).lo, 0b1100u);
  EXPECT_EQ((a ^ b).hi, 2u);
  EXPECT_FALSE(a.GetLsb());
  EXPECT_TRUE(a.WithLsb(true).GetLsb());
  EXPECT_EQ(a.WithLsb(true).lo, 0b1011u);
}

TEST(BlockTest, GfDoubleShifts) {
  Block a(1, 0);
  EXPECT_EQ(a.GfDouble().lo, 2u);
  // Overflow of the top bit folds back via the GCM polynomial 0x87.
  Block top(0, 0x8000000000000000ull);
  Block doubled = top.GfDouble();
  EXPECT_EQ(doubled.lo, 0x87u);
  EXPECT_EQ(doubled.hi, 0u);
}

TEST(BlockTest, BytesRoundTrip) {
  Block a(0x0123456789ABCDEFull, 0xFEDCBA9876543210ull);
  uint8_t bytes[16];
  a.ToBytes(bytes);
  EXPECT_EQ(Block::FromBytes(bytes), a);
}

TEST(Sha256Test, Fips180EmptyString) {
  EXPECT_EQ(DigestToHex(Sha256::Hash(std::string())),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Fips180Abc) {
  EXPECT_EQ(DigestToHex(Sha256::Hash(std::string("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, Fips180TwoBlockMessage) {
  EXPECT_EQ(DigestToHex(Sha256::Hash(std::string(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  std::string msg(1000, 'x');
  Sha256 h;
  h.Update(msg.substr(0, 17));
  h.Update(msg.substr(17, 500));
  h.Update(msg.substr(517));
  EXPECT_EQ(h.Finalize(), Sha256::Hash(msg));
}

TEST(Sha256Test, MillionAs) {
  // FIPS 180-4 long-message vector.
  std::string msg(1000000, 'a');
  EXPECT_EQ(DigestToHex(Sha256::Hash(msg)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(PrgTest, DeterministicForSeed) {
  Prg a(Block(9, 9)), b(Block(9, 9));
  for (int i = 0; i < 32; ++i) EXPECT_EQ(a.NextBlock(), b.NextBlock());
}

TEST(PrgTest, DifferentSeedsDiverge) {
  Prg a(Block(1, 0)), b(Block(2, 0));
  EXPECT_NE(a.NextBlock(), b.NextBlock());
}

TEST(PrgTest, BytesAreBalanced) {
  Prg prg(Block(77, 0));
  std::vector<uint8_t> bytes = prg.Bytes(8192);
  int ones = 0;
  for (uint8_t b : bytes) ones += __builtin_popcount(b);
  double fraction = ones / (8192.0 * 8);
  EXPECT_NEAR(fraction, 0.5, 0.02);
}

TEST(PrgTest, BitStreamMatchesBlocks) {
  Prg prg(Block(5, 5));
  int ones = 0;
  for (int i = 0; i < 4096; ++i) ones += prg.NextBit();
  EXPECT_NEAR(ones / 4096.0, 0.5, 0.05);
}

TEST(HashBlockTest, TweakSeparatesOutputs) {
  Block x(42, 42);
  EXPECT_NE(HashBlock(x, 0), HashBlock(x, 1));
  EXPECT_EQ(HashBlock(x, 7), HashBlock(x, 7));
}

TEST(HashBlockTest, InputSeparation) {
  EXPECT_NE(HashBlock(Block(1, 0), 0), HashBlock(Block(2, 0), 0));
  EXPECT_NE(HashBlocks(Block(1, 0), Block(2, 0), 0),
            HashBlocks(Block(2, 0), Block(1, 0), 0));
}

class PaillierTest : public ::testing::Test {
 protected:
  PaillierTest() : rng_(2024), keys_(GeneratePaillierKey(rng_, 256)) {}

  Rng rng_;
  PaillierKeyPair keys_;
};

TEST_F(PaillierTest, EncryptDecryptRoundTrip) {
  for (int64_t m : {0ll, 1ll, 42ll, 1000000007ll}) {
    BigInt c = keys_.public_key.Encrypt(BigInt(m), rng_);
    EXPECT_EQ(keys_.private_key.Decrypt(c).ToI64(), m);
  }
}

TEST_F(PaillierTest, NegativeMessages) {
  for (int64_t m : {-1ll, -9999ll, -123456789ll}) {
    BigInt c = keys_.public_key.Encrypt(BigInt(m), rng_);
    EXPECT_EQ(keys_.private_key.Decrypt(c).ToI64(), m);
  }
}

TEST_F(PaillierTest, EncryptionIsRandomized) {
  BigInt c1 = keys_.public_key.Encrypt(BigInt(5), rng_);
  BigInt c2 = keys_.public_key.Encrypt(BigInt(5), rng_);
  EXPECT_NE(c1, c2);
  EXPECT_EQ(keys_.private_key.Decrypt(c1), keys_.private_key.Decrypt(c2));
}

TEST_F(PaillierTest, CrtDecryptMatchesFullWidthReference) {
  // Decrypt runs the CRT-split fast path; DecryptFullWidth is the
  // textbook L(c^lambda mod n^2) * mu mod n reference. Differential-test
  // them across positive, negative, zero, and homomorphically-derived
  // ciphertexts — any divergence means the CRT recombination is wrong.
  std::vector<BigInt> ciphertexts;
  for (int64_t m : {0ll, 1ll, -1ll, 424242ll, -987654321ll}) {
    ciphertexts.push_back(keys_.public_key.Encrypt(BigInt(m), rng_));
  }
  ciphertexts.push_back(
      keys_.public_key.Add(ciphertexts[3], ciphertexts[4]));
  ciphertexts.push_back(keys_.public_key.MulPlain(ciphertexts[3], BigInt(17)));
  for (int trial = 0; trial < 16; ++trial) {
    BigInt m = BigInt::RandomBits(rng_, 60);
    if (trial % 2 == 1) m = BigInt(0) - m;
    ciphertexts.push_back(keys_.public_key.Encrypt(m, rng_));
  }
  for (size_t i = 0; i < ciphertexts.size(); ++i) {
    EXPECT_EQ(keys_.private_key.Decrypt(ciphertexts[i]),
              keys_.private_key.DecryptFullWidth(ciphertexts[i]))
        << "ciphertext " << i;
  }
}

TEST_F(PaillierTest, HomomorphicAddition) {
  BigInt c1 = keys_.public_key.Encrypt(BigInt(1234), rng_);
  BigInt c2 = keys_.public_key.Encrypt(BigInt(-234), rng_);
  BigInt sum = keys_.public_key.Add(c1, c2);
  EXPECT_EQ(keys_.private_key.Decrypt(sum).ToI64(), 1000);
}

TEST_F(PaillierTest, AddPlainConstant) {
  BigInt c = keys_.public_key.Encrypt(BigInt(10), rng_);
  BigInt shifted = keys_.public_key.AddPlain(c, BigInt(-25));
  EXPECT_EQ(keys_.private_key.Decrypt(shifted).ToI64(), -15);
}

TEST_F(PaillierTest, ScalarMultiplication) {
  BigInt c = keys_.public_key.Encrypt(BigInt(-7), rng_);
  BigInt scaled = keys_.public_key.MulPlain(c, BigInt(13));
  EXPECT_EQ(keys_.private_key.Decrypt(scaled).ToI64(), -91);
}

TEST_F(PaillierTest, NegativeScalarMultiplication) {
  // Negative scalars take the slow full-exponent path but must be correct.
  BigInt c = keys_.public_key.Encrypt(BigInt(9), rng_);
  BigInt scaled = keys_.public_key.MulPlain(c, BigInt(-4));
  EXPECT_EQ(keys_.private_key.Decrypt(scaled).ToI64(), -36);
}

TEST_F(PaillierTest, RerandomizePreservesPlaintext) {
  BigInt c = keys_.public_key.Encrypt(BigInt(321), rng_);
  BigInt r = keys_.public_key.Rerandomize(c, rng_);
  EXPECT_NE(c, r);
  EXPECT_EQ(keys_.private_key.Decrypt(r).ToI64(), 321);
}

TEST_F(PaillierTest, DotProductProperty) {
  // The secure linear classifier's core identity:
  // Dec(prod_i Enc(x_i)^{w_i}) = sum_i w_i x_i.
  std::vector<int64_t> x = {3, -1, 4, 1, -5};
  std::vector<int64_t> w = {2, 7, -1, 8, 2};
  BigInt acc = keys_.public_key.Encrypt(BigInt(0), rng_);
  int64_t expected = 0;
  for (size_t i = 0; i < x.size(); ++i) {
    BigInt c = keys_.public_key.Encrypt(BigInt(x[i]), rng_);
    acc = keys_.public_key.Add(acc, keys_.public_key.MulPlain(c, BigInt(w[i])));
    expected += w[i] * x[i];
  }
  EXPECT_EQ(keys_.private_key.Decrypt(acc).ToI64(), expected);
}

TEST(PaillierKeyGenTest, LargerKeysWork) {
  Rng rng(31337);
  PaillierKeyPair keys = GeneratePaillierKey(rng, 512);
  BigInt c = keys.public_key.Encrypt(BigInt::FromDecimal("98765432109876543210"),
                                     rng);
  EXPECT_EQ(keys.private_key.Decrypt(c).ToDecimal(), "98765432109876543210");
}

class PaillierPoolTest : public ::testing::Test {
 protected:
  PaillierPoolTest() : rng_(404), keys_(GeneratePaillierKey(rng_, 256)) {}

  Rng rng_;
  PaillierKeyPair keys_;
};

TEST_F(PaillierPoolTest, PooledEncryptionBitIdenticalToSerialLoop) {
  // The determinism contract end to end: a pool refilled from rng position
  // P, drained FIFO by EncryptBatch, must produce the exact ciphertexts a
  // serial Encrypt loop produces from the same position — that is what
  // lets a serving client replay retried queries byte for byte.
  std::vector<BigInt> ms;
  for (int i = 0; i < 12; ++i) ms.emplace_back(i % 2);

  for (size_t prefill : {size_t{0}, size_t{5}, size_t{12}}) {
    Rng pooled_rng(9090);
    PaillierPadPool pool(keys_.public_key, ms.size());
    EXPECT_EQ(pool.Refill(pooled_rng, prefill), prefill);
    std::vector<BigInt> pooled =
        EncryptBatch(keys_.public_key, ms, pooled_rng, &pool);

    Rng serial_rng(9090);
    for (size_t i = 0; i < ms.size(); ++i) {
      BigInt expected = keys_.public_key.Encrypt(ms[i], serial_rng);
      EXPECT_EQ(pooled[i], expected) << "prefill=" << prefill << " slot " << i;
    }
  }
}

TEST_F(PaillierPoolTest, PooledOpsDecryptCorrectly) {
  PaillierPadPool pool(keys_.public_key, 8);
  pool.Refill(rng_, 8);
  BigInt pad;
  ASSERT_TRUE(pool.TryTake(&pad));
  BigInt ct = keys_.public_key.EncryptWithPad(BigInt(1234), pad);
  EXPECT_EQ(keys_.private_key.Decrypt(ct).ToI64(), 1234);

  ASSERT_TRUE(pool.TryTake(&pad));
  BigInt rerand = keys_.public_key.RerandomizeWithPad(ct, pad);
  EXPECT_NE(rerand, ct);
  EXPECT_EQ(keys_.private_key.Decrypt(rerand).ToI64(), 1234);

  PaillierPadPool::Stats stats = pool.stats();
  EXPECT_EQ(stats.refilled, 8u);
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(pool.depth(), 6u);
  EXPECT_EQ(pool.Deficit(), 2u);
}

TEST_F(PaillierPoolTest, DryPoolMissesAndBatchFallsBack) {
  PaillierPadPool pool(keys_.public_key, 4);
  BigInt pad;
  EXPECT_FALSE(pool.TryTake(&pad));
  EXPECT_EQ(pool.stats().misses, 1u);
  // EncryptBatch over a dry pool must still produce valid ciphertexts.
  std::vector<BigInt> ms{BigInt(0), BigInt(1), BigInt(7)};
  std::vector<BigInt> cts = EncryptBatch(keys_.public_key, ms, rng_, &pool);
  for (size_t i = 0; i < ms.size(); ++i) {
    EXPECT_EQ(keys_.private_key.Decrypt(cts[i]), ms[i]);
  }
}

TEST_F(PaillierPoolTest, RefillRespectsTargetAndStopFlag) {
  PaillierPadPool pool(keys_.public_key, 3);
  EXPECT_EQ(pool.Refill(rng_, 10), 3u);  // Never grows past target.
  EXPECT_EQ(pool.depth(), 3u);
  pool.Clear();
  EXPECT_EQ(pool.depth(), 0u);
  std::atomic<bool> stop{true};
  EXPECT_EQ(pool.Refill(rng_, 10, &stop), 0u);  // Stop beats the batch.
}

TEST_F(PaillierPoolTest, ConcurrentRefillersNeverOvershootTarget) {
  // Two refillers racing on one pool: the unlocked modexp means both can
  // pass the draw-time bound check, so the push must recheck under the
  // lock and discard rather than grow past target.
  PaillierPadPool pool(keys_.public_key, 4);
  Rng rng_a(111), rng_b(222);
  size_t added_a = 0, added_b = 0;
  std::thread t([&] { added_a = pool.Refill(rng_a, 4); });
  added_b = pool.Refill(rng_b, 4);
  t.join();
  EXPECT_EQ(pool.depth(), 4u);
  EXPECT_EQ(added_a + added_b, 4u);
  EXPECT_EQ(pool.stats().refilled, 4u);
}

}  // namespace
}  // namespace pafs
