// Tests for ot/curve25519: field arithmetic against a slow BigInt reference
// mod 2^255 - 19, the group law and scalar multiplication against
// textbook identities, and the point decoder's rejection of every
// malformed or small-order input.
#include "ot/curve25519.h"

#include <array>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bignum/bigint.h"
#include "bignum/modmath.h"
#include "net/error.h"
#include "util/random.h"

namespace pafs {
namespace curve25519 {
namespace {

const BigInt& P() {
  static const BigInt p = (BigInt(1) << 255) - BigInt(19);
  return p;
}

const BigInt& L() {
  static const BigInt l =
      (BigInt(1) << 252) +
      BigInt::FromDecimal("27742317777372353535851937790883648493");
  return l;
}

BigInt Mod(const BigInt& a) {
  BigInt r = a % P();
  if (r.is_negative()) r += P();
  return r;
}

// The integer a's limbs represent, before any reduction.
BigInt LimbValue(const Fe& a) {
  BigInt v(0);
  for (int i = 4; i >= 0; --i) v = (v << 51) + BigInt(a.v[i]);
  return v;
}

BigInt Canonical(const Fe& a) {
  uint8_t bytes[32];
  FeEncode(a, bytes);
  return BigInt::FromBytes(std::vector<uint8_t>(bytes, bytes + 32));
}

std::array<uint8_t, 32> Bytes32(const BigInt& v) {
  std::array<uint8_t, 32> out{};
  std::vector<uint8_t> bytes = v.ToBytes();
  EXPECT_LE(bytes.size(), out.size());
  for (size_t i = 0; i < bytes.size() && i < out.size(); ++i) out[i] = bytes[i];
  return out;
}

Fe FromBig(const BigInt& v) {
  Fe out;
  EXPECT_TRUE(FeDecode(Bytes32(Mod(v)).data(), &out));
  return out;
}

void ExpectLoose(const Fe& a) {
  for (uint64_t limb : a.v) EXPECT_LT(limb, uint64_t{1} << 52);
}

Fe RandomLooseFe(Rng& rng) {
  Fe a;
  for (uint64_t& limb : a.v) limb = rng.NextU64() >> 12;  // < 2^52.
  return a;
}

// 0, 1, p - 1, and representations with limbs at the carry bounds:
// non-canonical encodings of p, 2^255 - 1 and the largest loose value.
std::vector<Fe> EdgeFes() {
  const uint64_t m51 = (uint64_t{1} << 51) - 1;
  const uint64_t m52 = (uint64_t{1} << 52) - 1;
  return {
      FeFromU64(0),
      FeFromU64(1),
      FromBig(P() - BigInt(1)),
      Fe{{m51 - 18, m51, m51, m51, m51}},  // p itself.
      Fe{{m51, m51, m51, m51, m51}},       // 2^255 - 1.
      Fe{{m52, m52, m52, m52, m52}},
      Fe{{m52, 0, 0, 0, m52}},
  };
}

TEST(CurveFieldTest, OpsMatchBigIntReference) {
  Rng rng(0xF1E1D);
  std::vector<Fe> inputs = EdgeFes();
  for (int i = 0; i < 40; ++i) inputs.push_back(RandomLooseFe(rng));
  for (const Fe& a : inputs) {
    const BigInt va = LimbValue(a);
    EXPECT_EQ(Canonical(a), Mod(va));
    const Fe sq = FeSquare(a);
    ExpectLoose(sq);
    EXPECT_EQ(Canonical(sq), Mod(va * va));
    const Fe inv = FeInvert(a);
    ExpectLoose(inv);
    EXPECT_EQ(Canonical(inv), ModExp(Mod(va), P() - BigInt(2), P()));
    for (const Fe& b : inputs) {
      const BigInt vb = LimbValue(b);
      const Fe sum = FeAdd(a, b);
      const Fe diff = FeSub(a, b);
      const Fe prod = FeMul(a, b);
      ExpectLoose(sum);
      ExpectLoose(diff);
      ExpectLoose(prod);
      ASSERT_EQ(Canonical(sum), Mod(va + vb));
      ASSERT_EQ(Canonical(diff), Mod(va - vb));
      ASSERT_EQ(Canonical(prod), Mod(va * vb));
    }
  }
}

TEST(CurveFieldTest, InverseOfNonzeroIsInverse) {
  Rng rng(7);
  for (int i = 0; i < 20; ++i) {
    const Fe a = RandomLooseFe(rng);
    EXPECT_TRUE(FeEqual(FeMul(a, FeInvert(a)), FeFromU64(1)));
  }
  EXPECT_TRUE(FeEqual(FeInvert(FeFromU64(0)), FeFromU64(0)));
}

TEST(CurveFieldTest, DecodeAcceptsOnlyCanonicalValues) {
  Fe out;
  EXPECT_TRUE(FeDecode(Bytes32(P() - BigInt(1)).data(), &out));
  EXPECT_EQ(Canonical(out), P() - BigInt(1));
  for (const BigInt& bad :
       {P(), P() + BigInt(1), P() + BigInt(18), (BigInt(1) << 255) - BigInt(1),
        BigInt(1) << 255, (BigInt(1) << 256) - BigInt(1)}) {
    EXPECT_FALSE(FeDecode(Bytes32(bad).data(), &out)) << bad.ToHex();
  }
}

// sqrt(u) mod p when it exists: u^((p+3)/8), times sqrt(-1) if needed.
bool SqrtModP(const BigInt& u, BigInt* root) {
  BigInt r = ModExp(u, (P() + BigInt(3)) >> 3, P());
  if (Mod(r * r) != Mod(u)) {
    r = Mod(r * ModExp(BigInt(2), (P() - BigInt(1)) >> 2, P()));
  }
  if (Mod(r * r) != Mod(u)) return false;
  *root = r;
  return true;
}

BigInt CurveD() {
  return Mod(BigInt(-121665) * ModInverse(BigInt(121666), P()));
}

PointBytes EncodeAffine(const BigInt& x, const BigInt& y) {
  PointBytes out;
  const std::array<uint8_t, 32> xb = Bytes32(x), yb = Bytes32(y);
  std::copy(xb.begin(), xb.end(), out.begin());
  std::copy(yb.begin(), yb.end(), out.begin() + 32);
  return out;
}

// An x with (x, y) on the curve, when y has one.
bool AffineFromY(const BigInt& y, BigInt* x) {
  const BigInt yy = Mod(y * y);
  const BigInt u = Mod(yy - BigInt(1));
  const BigInt v = Mod(CurveD() * yy + BigInt(1));
  return SqrtModP(Mod(u * ModInverse(v, P())), x);
}

Point RandomCurvePoint(Rng& rng) {
  for (;;) {
    const BigInt y = Mod(BigInt::RandomBits(rng, 255));
    BigInt x;
    if (!AffineFromY(y, &x)) continue;
    const PointBytes bytes = EncodeAffine(x, y);
    return DecodePoint(bytes.data());
  }
}

Scalar ScalarOf(const BigInt& v) { return Bytes32(v); }

// Canonical encodings are equal exactly when the points are.
bool Same(const Point& p, const Point& q) {
  return EncodePoint(p) == EncodePoint(q);
}

// Variable-time double-and-add over the public group law.
Point ReferenceMul(const Scalar& s, const Point& p) {
  Point acc = Identity();
  for (int bit = 255; bit >= 0; --bit) {
    acc = Double(acc);
    if ((s[bit / 8] >> (bit % 8)) & 1) acc = Add(acc, p);
  }
  return acc;
}

TEST(CurveGroupTest, BasePointIsRfc8032sAndHasOrderL) {
  const PointBytes g = EncodePoint(BasePoint());
  EXPECT_EQ(g, EncodeAffine(BigInt::FromDecimal(
                                "1511222134953540077250115140958853151145401269"
                                "3041857206046113283949847762202"),
                            BigInt::FromDecimal(
                                "4631683569492647816942839400347516314130799386"
                                "6256225615783033603165251855960")));
  EXPECT_TRUE(IsIdentity(ScalarMul(ScalarOf(L()), BasePoint())));
  EXPECT_TRUE(IsIdentity(ScalarMulBase(ScalarOf(L()))));
  EXPECT_FALSE(IsIdentity(ScalarMulBase(ScalarOf(L() - BigInt(1)))));
  EXPECT_TRUE(
      Same(ScalarMulBase(ScalarOf(L() - BigInt(1))), Negate(BasePoint())));
}

TEST(CurveGroupTest, GroupLawIdentities) {
  Rng rng(0xC0FFEE);
  for (int i = 0; i < 6; ++i) {
    const Point p = RandomCurvePoint(rng);
    const Point q = RandomCurvePoint(rng);
    EXPECT_TRUE(Same(Double(p), Add(p, p)));
    EXPECT_TRUE(Same(Add(p, q), Add(q, p)));
    EXPECT_TRUE(Same(Add(p, Identity()), p));
    EXPECT_TRUE(IsIdentity(Add(p, Negate(p))));
    EXPECT_TRUE(
        Same(Add(Add(p, q), BasePoint()), Add(p, Add(q, BasePoint()))));
  }
}

TEST(CurveGroupTest, ScalarMultiplicationAgrees) {
  Rng rng(0x5CA1A);
  for (int i = 0; i < 8; ++i) {
    Scalar raw;
    rng.FillBytes(raw.data(), raw.size());
    const Point p = RandomCurvePoint(rng);
    const Point expected = ReferenceMul(raw, p);
    EXPECT_TRUE(Same(ScalarMul(raw, p), expected));
    EXPECT_TRUE(Same(PointTable(p).Mul(raw), expected));
    EXPECT_TRUE(Same(ScalarMulBase(raw), ReferenceMul(raw, BasePoint())));
  }
  EXPECT_TRUE(IsIdentity(ScalarMulBase(Scalar{})));
}

TEST(CurveGroupTest, DiffieHellmanAgreementAndClamping) {
  Rng rng(42);
  for (int i = 0; i < 4; ++i) {
    const Scalar a = RandomScalar(rng);
    const Scalar b = RandomScalar(rng);
    EXPECT_EQ(a[0] & 7, 0);
    EXPECT_EQ(a[31] & 0xC0, 0x40);
    const Point ab = ScalarMul(a, ScalarMulBase(b));
    const Point ba = ScalarMul(b, ScalarMulBase(a));
    EXPECT_TRUE(Same(ab, ba));
    EXPECT_EQ(EncodePoint(ab), EncodePoint(ba));
  }
}

TEST(CurveCodecTest, EncodeDecodeRoundTrips) {
  Rng rng(9);
  std::vector<Point> points;
  for (int i = 0; i < 8; ++i) {
    points.push_back(ScalarMulBase(RandomScalar(rng)));
  }
  points.push_back(RandomCurvePoint(rng));
  const std::vector<PointBytes> batch = EncodePoints(points);
  ASSERT_EQ(batch.size(), points.size());
  for (size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(batch[i], EncodePoint(points[i]));
    const Point back = DecodePoint(batch[i].data());
    EXPECT_TRUE(Same(back, points[i]));
    EXPECT_EQ(EncodePoint(back), batch[i]);
  }
  EXPECT_TRUE(EncodePoints({}).empty());
}

void ExpectRejected(const PointBytes& bytes, const std::string& why) {
  try {
    DecodePoint(bytes.data());
    ADD_FAILURE() << "accepted a point that should fail: " << why;
  } catch (const ProtocolError& e) {
    EXPECT_NE(std::string(e.what()).find(why), std::string::npos) << e.what();
  }
}

TEST(CurveCodecTest, DecoderRejectsNonCanonicalAndOffCurve) {
  // A curve point with a small y, sent as y + p: the same point, but not
  // in canonical form.
  BigInt x;
  BigInt y(2);
  while (!AffineFromY(y, &x)) y += BigInt(1);
  ASSERT_LT(y, BigInt(19));
  const PointBytes good = EncodeAffine(x, y);
  DecodePoint(good.data());
  ExpectRejected(EncodeAffine(x, y + P()), "not below p");
  ExpectRejected(EncodeAffine(x + P(), y), "not below p");
  PointBytes top_bit = good;
  top_bit[63] |= 0x80;
  ExpectRejected(top_bit, "not below p");
  ExpectRejected(EncodeAffine(x, y + BigInt(1)), "not on the curve");
  ExpectRejected(EncodeAffine(BigInt(2), BigInt(0)), "not on the curve");
  PointBytes zeros{};
  ExpectRejected(zeros, "not on the curve");
}

TEST(CurveCodecTest, DecoderRejectsEverySmallOrderPoint) {
  // The torsion subgroup is cyclic of order 8: l·R for a random curve
  // point R lands in it, and one of order 8 generates all 8 points.
  Rng rng(0x70512);
  Point t;
  do {
    t = ScalarMul(ScalarOf(L()), RandomCurvePoint(rng));
  } while (IsIdentity(Double(Double(t))));
  std::set<PointBytes> seen;
  Point k_t = Identity();
  for (int k = 0; k < 8; ++k) {
    const PointBytes bytes = EncodePoint(k_t);
    seen.insert(bytes);
    ExpectRejected(bytes, "small order");
    k_t = Add(k_t, t);
  }
  EXPECT_EQ(seen.size(), 8u);
  EXPECT_TRUE(IsIdentity(k_t));
}

}  // namespace
}  // namespace curve25519
}  // namespace pafs
