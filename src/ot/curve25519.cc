#include "ot/curve25519.h"

#include <cstring>

#include "net/error.h"
#include "util/random.h"

namespace pafs {
namespace curve25519 {

namespace {

using u128 = unsigned __int128;

constexpr uint64_t kMask51 = (uint64_t{1} << 51) - 1;

// Carries every limb into the next, folding the carry out of the top limb
// back into limb 0 as 19·c (2^255 = 19 mod p). Inputs below 2^63 leave
// every limb below 2^52.
Fe Carry(uint64_t v0, uint64_t v1, uint64_t v2, uint64_t v3, uint64_t v4) {
  v1 += v0 >> 51;
  v0 &= kMask51;
  v2 += v1 >> 51;
  v1 &= kMask51;
  v3 += v2 >> 51;
  v2 &= kMask51;
  v4 += v3 >> 51;
  v3 &= kMask51;
  v0 += 19 * (v4 >> 51);
  v4 &= kMask51;
  return Fe{{v0, v1, v2, v3, v4}};
}

// Carry for the 128-bit column sums of a product. Each column stays below
// 2^113 for inputs below 2^52, so every carry fits 64 bits.
Fe CarryWide(u128 r0, u128 r1, u128 r2, u128 r3, u128 r4) {
  r1 += static_cast<uint64_t>(r0 >> 51);
  r2 += static_cast<uint64_t>(r1 >> 51);
  r3 += static_cast<uint64_t>(r2 >> 51);
  r4 += static_cast<uint64_t>(r3 >> 51);
  uint64_t v0 = static_cast<uint64_t>(r0) & kMask51;
  uint64_t v1 = static_cast<uint64_t>(r1) & kMask51;
  const uint64_t v2 = static_cast<uint64_t>(r2) & kMask51;
  const uint64_t v3 = static_cast<uint64_t>(r3) & kMask51;
  const uint64_t v4 = static_cast<uint64_t>(r4) & kMask51;
  v0 += 19 * static_cast<uint64_t>(r4 >> 51);
  v1 += v0 >> 51;
  v0 &= kMask51;
  return Fe{{v0, v1, v2, v3, v4}};
}

Fe SquareTimes(Fe a, int n) {
  for (int i = 0; i < n; ++i) a = FeSquare(a);
  return a;
}

// out = mask ? in : out, for mask all-ones or zero, without a branch.
void FeCmov(Fe* out, const Fe& in, uint64_t mask) {
  for (int i = 0; i < 5; ++i) out->v[i] ^= mask & (out->v[i] ^ in.v[i]);
}

using Cached = PointTable::Cached;

// RFC 8032's base point x coordinate, little-endian; y is 4/5.
constexpr uint8_t kBaseX[32] = {
    0x1a, 0xd5, 0x25, 0x8f, 0x60, 0x2d, 0x56, 0xc9, 0xb2, 0xa7, 0x25,
    0x95, 0x60, 0xc7, 0x2c, 0x69, 0x5c, 0xdc, 0xd6, 0xfd, 0x31, 0xe2,
    0xa4, 0xc0, 0xfe, 0x53, 0x6e, 0xcd, 0xd3, 0x36, 0x69, 0x21};

struct Constants {
  Fe d;   // -121665/121666
  Fe d2;  // 2d
  Point base;
};

const Constants& Consts() {
  static const Constants kConsts = [] {
    Constants c;
    c.d = FeMul(FeSub(FeFromU64(0), FeFromU64(121665)),
                FeInvert(FeFromU64(121666)));
    c.d2 = FeAdd(c.d, c.d);
    Fe x{};
    FeDecode(kBaseX, &x);
    const Fe y = FeMul(FeFromU64(4), FeInvert(FeFromU64(5)));
    c.base = Point{x, y, FeFromU64(1), FeMul(x, y)};
    return c;
  }();
  return kConsts;
}

Cached ToCached(const Point& p) {
  return Cached{FeAdd(p.y, p.x), FeSub(p.y, p.x), FeMul(p.t, Consts().d2),
                FeAdd(p.z, p.z)};
}

// add-2008-hwcd-3 for a = -1: complete, 8 multiplies.
Point AddCached(const Point& p, const Cached& q) {
  const Fe a = FeMul(FeSub(p.y, p.x), q.ymx);
  const Fe b = FeMul(FeAdd(p.y, p.x), q.ypx);
  const Fe c = FeMul(p.t, q.t2d);
  const Fe d = FeMul(p.z, q.z2);
  const Fe e = FeSub(b, a);
  const Fe f = FeSub(d, c);
  const Fe g = FeAdd(d, c);
  const Fe h = FeAdd(b, a);
  return Point{FeMul(e, f), FeMul(g, h), FeMul(f, g), FeMul(e, h)};
}

void CmovCached(Cached* out, const Cached& in, uint64_t mask) {
  FeCmov(&out->ypx, in.ypx, mask);
  FeCmov(&out->ymx, in.ymx, mask);
  FeCmov(&out->t2d, in.t2d, mask);
  FeCmov(&out->z2, in.z2, mask);
}

// table[nibble], reading all 16 entries whatever the nibble is.
Cached SelectCached(const Cached* table, unsigned nibble) {
  Cached out = table[0];
  for (unsigned i = 1; i < 16; ++i) {
    const uint64_t diff = i ^ nibble;
    const uint64_t mask = 0 - ((diff - 1) >> 63);  // All-ones iff diff == 0.
    CmovCached(&out, table[i], mask);
  }
  return out;
}

unsigned Nibble(const Scalar& s, int i) {
  return (s[i / 2] >> (4 * (i & 1))) & 15u;
}

// entries[i][v] = v·16^i·G: s·G is then one addition per scalar nibble.
struct BaseTable {
  Cached entries[64][16];
};

const BaseTable& GetBaseTable() {
  static const BaseTable* const kTable = [] {
    auto* table = new BaseTable();
    Point step = Consts().base;
    for (auto& row : table->entries) {
      Point acc = Identity();
      row[0] = ToCached(acc);
      for (int v = 1; v < 16; ++v) {
        acc = Add(acc, step);
        row[v] = ToCached(acc);
      }
      step = Add(acc, step);
    }
    return table;
  }();
  return *kTable;
}

}  // namespace

Fe FeFromU64(uint64_t x) {
  return Carry(x & kMask51, x >> 51, 0, 0, 0);
}

Fe FeAdd(const Fe& a, const Fe& b) {
  return Carry(a.v[0] + b.v[0], a.v[1] + b.v[1], a.v[2] + b.v[2],
               a.v[3] + b.v[3], a.v[4] + b.v[4]);
}

Fe FeSub(const Fe& a, const Fe& b) {
  // a + 4p - b: 4p's limbs exceed any input limb, so nothing underflows.
  constexpr uint64_t k4p0 = 4 * ((uint64_t{1} << 51) - 19);
  constexpr uint64_t k4p = 4 * kMask51;
  return Carry(a.v[0] + k4p0 - b.v[0], a.v[1] + k4p - b.v[1],
               a.v[2] + k4p - b.v[2], a.v[3] + k4p - b.v[3],
               a.v[4] + k4p - b.v[4]);
}

Fe FeMul(const Fe& a, const Fe& b) {
  const uint64_t a0 = a.v[0], a1 = a.v[1], a2 = a.v[2], a3 = a.v[3],
                 a4 = a.v[4];
  const uint64_t b0 = b.v[0], b1 = b.v[1], b2 = b.v[2], b3 = b.v[3],
                 b4 = b.v[4];
  const uint64_t b1_19 = 19 * b1, b2_19 = 19 * b2, b3_19 = 19 * b3,
                 b4_19 = 19 * b4;
  const u128 r0 = u128{a0} * b0 + u128{a1} * b4_19 + u128{a2} * b3_19 +
                  u128{a3} * b2_19 + u128{a4} * b1_19;
  const u128 r1 = u128{a0} * b1 + u128{a1} * b0 + u128{a2} * b4_19 +
                  u128{a3} * b3_19 + u128{a4} * b2_19;
  const u128 r2 = u128{a0} * b2 + u128{a1} * b1 + u128{a2} * b0 +
                  u128{a3} * b4_19 + u128{a4} * b3_19;
  const u128 r3 = u128{a0} * b3 + u128{a1} * b2 + u128{a2} * b1 +
                  u128{a3} * b0 + u128{a4} * b4_19;
  const u128 r4 = u128{a0} * b4 + u128{a1} * b3 + u128{a2} * b2 +
                  u128{a3} * b1 + u128{a4} * b0;
  return CarryWide(r0, r1, r2, r3, r4);
}

Fe FeSquare(const Fe& a) {
  const uint64_t a0 = a.v[0], a1 = a.v[1], a2 = a.v[2], a3 = a.v[3],
                 a4 = a.v[4];
  const uint64_t a0_2 = 2 * a0, a1_2 = 2 * a1;
  const uint64_t a1_38 = 38 * a1, a2_38 = 38 * a2, a3_38 = 38 * a3;
  const uint64_t a3_19 = 19 * a3, a4_19 = 19 * a4;
  const u128 r0 = u128{a0} * a0 + u128{a1_38} * a4 + u128{a2_38} * a3;
  const u128 r1 = u128{a0_2} * a1 + u128{a2_38} * a4 + u128{a3_19} * a3;
  const u128 r2 = u128{a0_2} * a2 + u128{a1} * a1 + u128{a3_38} * a4;
  const u128 r3 = u128{a0_2} * a3 + u128{a1_2} * a2 + u128{a4_19} * a4;
  const u128 r4 = u128{a0_2} * a4 + u128{a1_2} * a3 + u128{a2} * a2;
  return CarryWide(r0, r1, r2, r3, r4);
}

Fe FeInvert(const Fe& a) {
  // p - 2 = 2^255 - 21, by the usual chain: 254 squarings, 11 multiplies.
  const Fe a2 = FeSquare(a);                                // a^2
  const Fe a9 = FeMul(SquareTimes(a2, 2), a);               // a^9
  const Fe a11 = FeMul(a9, a2);                             // a^11
  const Fe e5 = FeMul(FeSquare(a11), a9);                   // a^(2^5-1)
  const Fe e10 = FeMul(SquareTimes(e5, 5), e5);             // a^(2^10-1)
  const Fe e20 = FeMul(SquareTimes(e10, 10), e10);          // a^(2^20-1)
  const Fe e40 = FeMul(SquareTimes(e20, 20), e20);          // a^(2^40-1)
  const Fe e50 = FeMul(SquareTimes(e40, 10), e10);          // a^(2^50-1)
  const Fe e100 = FeMul(SquareTimes(e50, 50), e50);         // a^(2^100-1)
  const Fe e200 = FeMul(SquareTimes(e100, 100), e100);      // a^(2^200-1)
  const Fe e250 = FeMul(SquareTimes(e200, 50), e50);        // a^(2^250-1)
  return FeMul(SquareTimes(e250, 5), a11);                  // a^(2^255-21)
}

void FeEncode(const Fe& a, uint8_t out[32]) {
  // After one carry the value h is below 2p. q = floor((h + 19) / 2^255)
  // is 1 exactly when h >= p; adding 19q and dropping bit 255 subtracts qp.
  Fe h = Carry(a.v[0], a.v[1], a.v[2], a.v[3], a.v[4]);
  uint64_t q = (h.v[0] + 19) >> 51;
  q = (h.v[1] + q) >> 51;
  q = (h.v[2] + q) >> 51;
  q = (h.v[3] + q) >> 51;
  q = (h.v[4] + q) >> 51;
  h.v[0] += 19 * q;
  h.v[1] += h.v[0] >> 51;
  h.v[0] &= kMask51;
  h.v[2] += h.v[1] >> 51;
  h.v[1] &= kMask51;
  h.v[3] += h.v[2] >> 51;
  h.v[2] &= kMask51;
  h.v[4] += h.v[3] >> 51;
  h.v[3] &= kMask51;
  h.v[4] &= kMask51;
  const uint64_t words[4] = {h.v[0] | h.v[1] << 51, h.v[1] >> 13 | h.v[2] << 38,
                             h.v[2] >> 26 | h.v[3] << 25,
                             h.v[3] >> 39 | h.v[4] << 12};
  for (int w = 0; w < 4; ++w) {
    for (int i = 0; i < 8; ++i) {
      out[8 * w + i] = static_cast<uint8_t>(words[w] >> (8 * i));
    }
  }
}

bool FeDecode(const uint8_t in[32], Fe* out) {
  uint64_t w[4] = {0, 0, 0, 0};
  for (int k = 0; k < 4; ++k) {
    for (int i = 0; i < 8; ++i) {
      w[k] |= static_cast<uint64_t>(in[8 * k + i]) << (8 * i);
    }
  }
  if (w[3] >> 63) return false;  // >= 2^255.
  const Fe f{{w[0] & kMask51, (w[0] >> 51 | w[1] << 13) & kMask51,
              (w[1] >> 38 | w[2] << 26) & kMask51,
              (w[2] >> 25 | w[3] << 39) & kMask51, w[3] >> 12}};
  // A value in [p, 2^255) re-encodes differently.
  uint8_t canonical[32];
  FeEncode(f, canonical);
  if (std::memcmp(canonical, in, 32) != 0) return false;
  *out = f;
  return true;
}

bool FeEqual(const Fe& a, const Fe& b) {
  uint8_t ea[32], eb[32];
  FeEncode(a, ea);
  FeEncode(b, eb);
  return std::memcmp(ea, eb, 32) == 0;
}

Point Identity() {
  return Point{FeFromU64(0), FeFromU64(1), FeFromU64(1), FeFromU64(0)};
}

const Point& BasePoint() { return Consts().base; }

Point Add(const Point& p, const Point& q) { return AddCached(p, ToCached(q)); }

Point Double(const Point& p) {
  // dbl-2008-hwcd for a = -1: 4 squarings, 4 multiplies; T is not read.
  const Fe a = FeSquare(p.x);
  const Fe b = FeSquare(p.y);
  const Fe zz = FeSquare(p.z);
  const Fe c = FeAdd(zz, zz);
  const Fe ab = FeAdd(a, b);
  const Fe e = FeSub(FeSquare(FeAdd(p.x, p.y)), ab);  // 2xy
  const Fe g = FeSub(b, a);
  const Fe f = FeSub(g, c);
  const Fe h = FeSub(FeFromU64(0), ab);
  return Point{FeMul(e, f), FeMul(g, h), FeMul(f, g), FeMul(e, h)};
}

Point Negate(const Point& p) {
  const Fe zero = FeFromU64(0);
  return Point{FeSub(zero, p.x), p.y, p.z, FeSub(zero, p.t)};
}

bool IsIdentity(const Point& p) {
  return FeEqual(p.x, FeFromU64(0)) && FeEqual(p.y, p.z);
}

Point Select(const Point& p, const Point& q, bool pick_q) {
  const uint64_t mask = 0 - static_cast<uint64_t>(pick_q);
  Point out = p;
  FeCmov(&out.x, q.x, mask);
  FeCmov(&out.y, q.y, mask);
  FeCmov(&out.z, q.z, mask);
  FeCmov(&out.t, q.t, mask);
  return out;
}

Scalar RandomScalar(Rng& rng) {
  Scalar s{};
  rng.FillBytes(s.data(), s.size());
  s[0] &= 248;
  s[31] &= 127;
  s[31] |= 64;
  return s;
}

PointTable::PointTable(const Point& p) {
  entries_[0] = ToCached(Identity());
  entries_[1] = ToCached(p);
  Point acc = p;
  for (size_t v = 2; v < entries_.size(); ++v) {
    acc = AddCached(acc, entries_[1]);
    entries_[v] = ToCached(acc);
  }
}

Point PointTable::Mul(const Scalar& s) const {
  // Top nibble first: four doublings, then one table add per nibble.
  Point acc =
      AddCached(Identity(), SelectCached(entries_.data(), Nibble(s, 63)));
  for (int i = 62; i >= 0; --i) {
    acc = Double(Double(Double(Double(acc))));
    acc = AddCached(acc, SelectCached(entries_.data(), Nibble(s, i)));
  }
  return acc;
}

Point ScalarMul(const Scalar& s, const Point& p) {
  return PointTable(p).Mul(s);
}

Point ScalarMulBase(const Scalar& s) {
  const BaseTable& table = GetBaseTable();
  Point acc = Identity();
  for (int i = 0; i < 64; ++i) {
    acc = AddCached(acc, SelectCached(table.entries[i], Nibble(s, i)));
  }
  return acc;
}

PointBytes EncodePoint(const Point& p) { return EncodePoints({p})[0]; }

std::vector<PointBytes> EncodePoints(const std::vector<Point>& points) {
  const size_t n = points.size();
  std::vector<PointBytes> out(n);
  if (n == 0) return out;
  // Montgomery's trick: prefix[i] = z_0···z_i, one inversion of the whole
  // product, then peel each 1/z_i off walking back.
  std::vector<Fe> prefix(n);
  prefix[0] = points[0].z;
  for (size_t i = 1; i < n; ++i) prefix[i] = FeMul(prefix[i - 1], points[i].z);
  Fe inv = FeInvert(prefix[n - 1]);
  for (size_t i = n; i-- > 0;) {
    Fe z_inv = inv;
    if (i > 0) {
      z_inv = FeMul(inv, prefix[i - 1]);
      inv = FeMul(inv, points[i].z);
    }
    FeEncode(FeMul(points[i].x, z_inv), out[i].data());
    FeEncode(FeMul(points[i].y, z_inv), out[i].data() + 32);
  }
  return out;
}

Point DecodePoint(const uint8_t in[kPointBytes]) {
  Fe x{}, y{};
  if (!FeDecode(in, &x) || !FeDecode(in + 32, &y)) {
    throw ProtocolError("curve25519: point coordinate not below p");
  }
  const Fe xx = FeSquare(x);
  const Fe yy = FeSquare(y);
  const Fe rhs = FeAdd(FeFromU64(1), FeMul(Consts().d, FeMul(xx, yy)));
  if (!FeEqual(FeSub(yy, xx), rhs)) {
    throw ProtocolError("curve25519: point not on the curve");
  }
  const Point p{x, y, FeFromU64(1), FeMul(x, y)};
  if (IsIdentity(Double(Double(Double(p))))) {
    throw ProtocolError("curve25519: point of small order");
  }
  return p;
}

}  // namespace curve25519
}  // namespace pafs
