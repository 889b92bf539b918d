// Unit and property tests for src/bignum: BigInt arithmetic, Montgomery
// modular exponentiation, and primality.
#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "bignum/bigint.h"
#include "bignum/modmath.h"
#include "bignum/prime.h"
#include "util/random.h"

namespace pafs {
namespace {

TEST(BigIntTest, SmallConstructionAndDecimal) {
  EXPECT_EQ(BigInt(0).ToDecimal(), "0");
  EXPECT_EQ(BigInt(42).ToDecimal(), "42");
  EXPECT_EQ(BigInt(-7).ToDecimal(), "-7");
  EXPECT_EQ(BigInt(uint64_t{18446744073709551615ull}).ToDecimal(),
            "18446744073709551615");
  EXPECT_EQ(BigInt(INT64_MIN).ToDecimal(), "-9223372036854775808");
}

TEST(BigIntTest, DecimalRoundTrip) {
  const std::string big = "123456789012345678901234567890123456789";
  EXPECT_EQ(BigInt::FromDecimal(big).ToDecimal(), big);
  EXPECT_EQ(BigInt::FromDecimal("-" + big).ToDecimal(), "-" + big);
}

TEST(BigIntTest, HexRoundTrip) {
  const std::string hex = "deadbeefcafef00d123456789abcdef0";
  EXPECT_EQ(BigInt::FromHex(hex).ToHex(), hex);
  EXPECT_EQ(BigInt::FromHex("0").ToHex(), "0");
}

TEST(BigIntTest, AdditionCarriesAcrossLimbs) {
  BigInt a = BigInt::FromHex("ffffffffffffffffffffffff");
  BigInt b(1);
  EXPECT_EQ((a + b).ToHex(), "1000000000000000000000000");
}

TEST(BigIntTest, SignedAddition) {
  EXPECT_EQ((BigInt(5) + BigInt(-3)).ToI64(), 2);
  EXPECT_EQ((BigInt(-5) + BigInt(3)).ToI64(), -2);
  EXPECT_EQ((BigInt(-5) + BigInt(-3)).ToI64(), -8);
  EXPECT_EQ((BigInt(5) + BigInt(-5)).ToI64(), 0);
}

TEST(BigIntTest, SubtractionBorrow) {
  BigInt a = BigInt::FromHex("10000000000000000");
  EXPECT_EQ((a - BigInt(1)).ToHex(), "ffffffffffffffff");
  EXPECT_EQ((BigInt(3) - BigInt(10)).ToI64(), -7);
}

TEST(BigIntTest, MultiplicationMatchesKnownProduct) {
  BigInt a = BigInt::FromDecimal("123456789123456789");
  BigInt b = BigInt::FromDecimal("987654321987654321");
  EXPECT_EQ((a * b).ToDecimal(), "121932631356500531347203169112635269");
}

TEST(BigIntTest, MultiplicationSignRules) {
  EXPECT_EQ((BigInt(-4) * BigInt(5)).ToI64(), -20);
  EXPECT_EQ((BigInt(-4) * BigInt(-5)).ToI64(), 20);
  EXPECT_EQ((BigInt(0) * BigInt(-5)).ToI64(), 0);
}

TEST(BigIntTest, KaratsubaAgreesWithSchoolbookProperty) {
  // Products large enough to trip the Karatsuba path are validated against
  // the identity (a+b)^2 = a^2 + 2ab + b^2.
  Rng rng(99);
  for (int trial = 0; trial < 10; ++trial) {
    BigInt a = BigInt::RandomBits(rng, 2000);
    BigInt b = BigInt::RandomBits(rng, 1900);
    BigInt lhs = (a + b) * (a + b);
    BigInt rhs = a * a + (a * b << 1) + b * b;
    EXPECT_EQ(lhs, rhs);
  }
}

TEST(BigIntTest, DivModEuclideanProperty) {
  Rng rng(5);
  for (int trial = 0; trial < 30; ++trial) {
    BigInt a = BigInt::RandomBits(rng, 512);
    BigInt b = BigInt::RandomBits(rng, 130 + trial);
    BigInt q, r;
    BigInt::DivMod(a, b, &q, &r);
    EXPECT_EQ(q * b + r, a);
    EXPECT_TRUE(r < b);
    EXPECT_FALSE(r.is_negative());
  }
}

TEST(BigIntTest, DivisionTruncatesTowardZero) {
  EXPECT_EQ((BigInt(7) / BigInt(2)).ToI64(), 3);
  EXPECT_EQ((BigInt(-7) / BigInt(2)).ToI64(), -3);
  EXPECT_EQ((BigInt(7) / BigInt(-2)).ToI64(), -3);
  EXPECT_EQ((BigInt(-7) / BigInt(-2)).ToI64(), 3);
  EXPECT_EQ((BigInt(-7) % BigInt(2)).ToI64(), -1);
  EXPECT_EQ((BigInt(7) % BigInt(-2)).ToI64(), 1);
}

TEST(BigIntTest, ShiftRoundTrip) {
  BigInt a = BigInt::FromDecimal("982451653");
  for (int s : {1, 31, 32, 33, 64, 100}) {
    EXPECT_EQ(((a << s) >> s), a) << "shift " << s;
  }
  EXPECT_EQ((BigInt(1) << 128).ToHex(),
            "100000000000000000000000000000000");
}

TEST(BigIntTest, BitAccess) {
  BigInt a = BigInt::FromHex("8000000000000001");
  EXPECT_EQ(a.BitLength(), 64);
  EXPECT_TRUE(a.GetBit(0));
  EXPECT_TRUE(a.GetBit(63));
  EXPECT_FALSE(a.GetBit(32));
  EXPECT_FALSE(a.GetBit(1000));
  EXPECT_EQ(BigInt(0).BitLength(), 0);
}

TEST(BigIntTest, ComparisonOrdering) {
  EXPECT_TRUE(BigInt(-2) < BigInt(-1));
  EXPECT_TRUE(BigInt(-1) < BigInt(0));
  EXPECT_TRUE(BigInt(0) < BigInt(1));
  EXPECT_TRUE(BigInt::FromDecimal("99999999999999999999") >
              BigInt::FromDecimal("9999999999999999999"));
}

TEST(BigIntTest, BytesRoundTrip) {
  Rng rng(21);
  for (int trial = 0; trial < 20; ++trial) {
    BigInt a = BigInt::RandomBits(rng, 10 + trial * 17);
    EXPECT_EQ(BigInt::FromBytes(a.ToBytes()), a);
  }
}

TEST(BigIntTest, RandomBitsHasExactLength) {
  Rng rng(33);
  for (int bits : {1, 2, 31, 32, 33, 64, 257, 1024}) {
    EXPECT_EQ(BigInt::RandomBits(rng, bits).BitLength(), bits);
  }
}

TEST(BigIntTest, RandomBelowStaysBelow) {
  Rng rng(44);
  BigInt bound = BigInt::FromDecimal("1000000000000000000000");
  for (int i = 0; i < 50; ++i) {
    BigInt v = BigInt::RandomBelow(rng, bound);
    EXPECT_TRUE(v < bound);
    EXPECT_FALSE(v.is_negative());
  }
}

TEST(ModMathTest, ModNonNegative) {
  EXPECT_EQ(Mod(BigInt(-7), BigInt(3)).ToI64(), 2);
  EXPECT_EQ(Mod(BigInt(7), BigInt(3)).ToI64(), 1);
  EXPECT_EQ(Mod(BigInt(-6), BigInt(3)).ToI64(), 0);
}

TEST(ModMathTest, GcdAndLcm) {
  EXPECT_EQ(Gcd(BigInt(12), BigInt(18)).ToI64(), 6);
  EXPECT_EQ(Gcd(BigInt(-12), BigInt(18)).ToI64(), 6);
  EXPECT_EQ(Gcd(BigInt(17), BigInt(5)).ToI64(), 1);
  EXPECT_EQ(Lcm(BigInt(4), BigInt(6)).ToI64(), 12);
}

TEST(ModMathTest, ModInverseProperty) {
  Rng rng(55);
  BigInt m = RandomPrime(rng, 64);
  for (int i = 0; i < 20; ++i) {
    BigInt a = BigInt::RandomBelow(rng, m - BigInt(1)) + BigInt(1);
    BigInt inv = ModInverse(a, m);
    EXPECT_EQ(ModMul(a, inv, m).ToI64(), 1);
  }
}

TEST(ModMathTest, TryModInverseFailsOnCommonFactor) {
  BigInt out;
  EXPECT_FALSE(TryModInverse(BigInt(6), BigInt(9), &out));
  EXPECT_TRUE(TryModInverse(BigInt(2), BigInt(9), &out));
  EXPECT_EQ(out.ToI64(), 5);
}

TEST(ModMathTest, ModExpSmallKnownValues) {
  EXPECT_EQ(ModExp(BigInt(2), BigInt(10), BigInt(1000)).ToI64(), 24);
  EXPECT_EQ(ModExp(BigInt(3), BigInt(0), BigInt(7)).ToI64(), 1);
  EXPECT_EQ(ModExp(BigInt(5), BigInt(117), BigInt(19)).ToI64(), 1);  // Fermat
}

TEST(ModMathTest, ModExpFermatLittleTheoremProperty) {
  Rng rng(66);
  BigInt p = RandomPrime(rng, 128);
  for (int i = 0; i < 10; ++i) {
    BigInt a = BigInt::RandomBelow(rng, p - BigInt(2)) + BigInt(1);
    EXPECT_EQ(ModExp(a, p - BigInt(1), p), BigInt(1));
  }
}

TEST(ModMathTest, ModExpMatchesNaiveOnEvenModulus) {
  Rng rng(67);
  for (int i = 0; i < 10; ++i) {
    int64_t a = rng.NextInt(0, 1000);
    int64_t e = rng.NextInt(0, 20);
    int64_t m = 2 * rng.NextInt(1, 500);
    int64_t expected = 1;
    for (int j = 0; j < e; ++j) expected = expected * a % m;
    EXPECT_EQ(ModExp(BigInt(a), BigInt(e), BigInt(m)).ToI64(), expected);
  }
}

TEST(ModMathTest, MontgomeryMulMatchesPlainModMul) {
  Rng rng(77);
  BigInt m = RandomPrime(rng, 256);
  MontgomeryCtx ctx(m);
  for (int i = 0; i < 25; ++i) {
    BigInt a = BigInt::RandomBelow(rng, m);
    BigInt b = BigInt::RandomBelow(rng, m);
    BigInt mont = ctx.FromMont(ctx.MontMul(ctx.ToMont(a), ctx.ToMont(b)));
    EXPECT_EQ(mont, ModMul(a, b, m));
  }
}

TEST(ModMathTest, MontgomeryExpMatchesSquareMultiplyProperty) {
  Rng rng(88);
  // Composite odd modulus exercises the non-prime path too.
  BigInt m = RandomPrime(rng, 120) * RandomPrime(rng, 120);
  MontgomeryCtx ctx(m);
  for (int i = 0; i < 10; ++i) {
    BigInt a = BigInt::RandomBelow(rng, m);
    BigInt e = BigInt::RandomBits(rng, 64);
    // (a^e)^2 == a^(2e)
    BigInt lhs = ModMul(ctx.Exp(a, e), ctx.Exp(a, e), m);
    BigInt rhs = ctx.Exp(a, e << 1);
    EXPECT_EQ(lhs, rhs);
  }
}

TEST(ModMathTest, WindowedExpEdgeCases) {
  Rng rng(7);
  // Single-limb odd modulus (2^32 - 5, prime): the CIOS loop runs with
  // k == 1, where off-by-one bounds in the scratch handling would show.
  BigInt small_m = BigInt::FromDecimal("4294967291");
  MontgomeryCtx small(small_m);
  for (int i = 0; i < 8; ++i) {
    BigInt a = BigInt::RandomBelow(rng, small_m);
    BigInt e = BigInt::RandomBits(rng, 48);
    EXPECT_EQ(small.Exp(a, e), small.ExpBinary(a, e));
  }

  BigInt m = RandomPrime(rng, 160) * RandomPrime(rng, 160);
  MontgomeryCtx ctx(m);
  BigInt a = BigInt::RandomBelow(rng, m);
  // e = 0: the empty window loop must still yield the identity.
  EXPECT_EQ(ctx.Exp(a, BigInt(0)), BigInt(1));
  EXPECT_EQ(ctx.ExpBinary(a, BigInt(0)), BigInt(1));
  EXPECT_EQ(ctx.Exp(BigInt(0), BigInt(0)), BigInt(1));
  // Base at and above the modulus: ToMont must reduce first.
  EXPECT_EQ(ctx.Exp(m, BigInt(5)), BigInt(0));
  BigInt e = BigInt::RandomBits(rng, 100);
  EXPECT_EQ(ctx.Exp(a + m, e), ctx.Exp(a, e));
  EXPECT_EQ(ctx.Exp(a + m * BigInt(3), e), ctx.Exp(a, e));
}

TEST(ModMathTest, WindowedExpMatchesBinaryLadderSweep) {
  // Differential sweep: the fixed-window path (all window sizes, selected
  // by exponent length) against the reference square-and-multiply ladder,
  // across modulus widths from one limb to RSA-sized.
  Rng rng(8);
  for (int mod_bits : {34, 64, 96, 256, 512, 1024}) {
    BigInt m = BigInt::RandomBits(rng, mod_bits);
    if (!m.GetBit(0)) m = m + BigInt(1);  // Montgomery needs odd.
    MontgomeryCtx ctx(m);
    for (int exp_bits : {1, 5, 17, 40, 130, 300}) {
      BigInt a = BigInt::RandomBelow(rng, m);
      BigInt e = BigInt::RandomBits(rng, exp_bits);
      EXPECT_EQ(ctx.Exp(a, e), ctx.ExpBinary(a, e))
          << "mod_bits=" << mod_bits << " exp_bits=" << exp_bits;
    }
  }
}

TEST(ModMathTest, CrtCombineReconstructs) {
  Rng rng(99);
  BigInt p = RandomPrime(rng, 96);
  BigInt q = RandomPrime(rng, 96);
  BigInt x = BigInt::RandomBelow(rng, p * q);
  BigInt rebuilt = CrtCombine(x % p, p, x % q, q);
  EXPECT_EQ(rebuilt, x);
}

TEST(PrimeTest, KnownPrimesAndComposites) {
  Rng rng(1);
  EXPECT_TRUE(IsProbablePrime(BigInt(2), rng));
  EXPECT_TRUE(IsProbablePrime(BigInt(97), rng));
  EXPECT_TRUE(IsProbablePrime(BigInt::FromDecimal("2305843009213693951"),
                              rng));  // 2^61 - 1
  EXPECT_FALSE(IsProbablePrime(BigInt(1), rng));
  EXPECT_FALSE(IsProbablePrime(BigInt(561), rng));  // Carmichael number
  EXPECT_FALSE(IsProbablePrime(
      BigInt::FromDecimal("2305843009213693953"), rng));
}

TEST(PrimeTest, RandomPrimeHasRequestedSize) {
  Rng rng(2);
  for (int bits : {16, 48, 128}) {
    BigInt p = RandomPrime(rng, bits);
    EXPECT_EQ(p.BitLength(), bits);
    EXPECT_TRUE(IsProbablePrime(p, rng));
  }
}

TEST(PrimeTest, SafePrimeStructure) {
  Rng rng(3);
  BigInt p = RandomSafePrime(rng, 32);
  EXPECT_TRUE(IsProbablePrime(p, rng));
  EXPECT_TRUE(IsProbablePrime((p - BigInt(1)) >> 1, rng));
}

TEST(PrimeTest, FixedGroupPrimeIsPrime) {
  Rng rng(4);
  const BigInt& p = Rfc3526Prime1024();
  EXPECT_EQ(p.BitLength(), 1024);
  EXPECT_TRUE(IsProbablePrime(p, rng, 8));
  // Safe prime: (p-1)/2 is also prime.
  EXPECT_TRUE(IsProbablePrime((p - BigInt(1)) >> 1, rng, 4));
}

}  // namespace
}  // namespace pafs
