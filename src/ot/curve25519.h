// edwards25519, the twisted Edwards form of Curve25519 (RFC 7748/8032):
// -x^2 + y^2 = 1 + d x^2 y^2 over GF(p), p = 2^255 - 19, with a base point
// G of prime order l = 2^252 + 27742317777372353535851937790883648493.
// Used only by the base OTs (ot/base_ot.cc), which need to add two
// arbitrary points (B - A, A + bG), hence the Edwards form rather than an
// x-only Montgomery ladder. Written here so the library links nothing
// beyond Threads.
//
// Side channels: scalar multiplication neither branches nor indexes memory
// on scalar bits (fixed 4-bit windows, every table entry read per window),
// and field arithmetic has no data-dependent branches. Point decoding
// branches freely: it only ever sees public wire bytes.
#ifndef PAFS_OT_CURVE25519_H_
#define PAFS_OT_CURVE25519_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace pafs {

class Rng;

namespace curve25519 {

// A field element v[0] + v[1]·2^51 + v[2]·2^102 + v[3]·2^153 + v[4]·2^204.
// Every operation accepts limbs below 2^52 and returns limbs below 2^52;
// the represented value may exceed p until FeEncode reduces it.
struct Fe {
  uint64_t v[5];
};

Fe FeFromU64(uint64_t x);
Fe FeAdd(const Fe& a, const Fe& b);
Fe FeSub(const Fe& a, const Fe& b);
Fe FeMul(const Fe& a, const Fe& b);
Fe FeSquare(const Fe& a);
// a^(p-2): the inverse of a nonzero a, and 0 for 0.
Fe FeInvert(const Fe& a);
// Canonical 32-byte little-endian encoding of the value mod p.
void FeEncode(const Fe& a, uint8_t out[32]);
// Decodes a canonical encoding; false when the 256-bit value is >= p.
bool FeDecode(const uint8_t in[32], Fe* out);
bool FeEqual(const Fe& a, const Fe& b);

// A point in extended coordinates (X : Y : Z : T): x = X/Z, y = Y/Z and
// x·y = T/Z. The addition law is complete on this curve, so Add also
// doubles and handles the identity.
struct Point {
  Fe x, y, z, t;
};

Point Identity();
const Point& BasePoint();
Point Add(const Point& p, const Point& q);
Point Double(const Point& p);
Point Negate(const Point& p);
bool IsIdentity(const Point& p);
// pick_q ? q : p, without a branch on pick_q.
Point Select(const Point& p, const Point& q, bool pick_q);

// A little-endian 256-bit scalar.
using Scalar = std::array<uint8_t, 32>;

// 32 bytes from `rng`, clamped as in X25519: a multiple of 8 (so the
// cofactor kills any small-order component a peer slips into a point),
// bit 254 set and bit 255 clear.
Scalar RandomScalar(Rng& rng);

// The 16 multiples 0·P..15·P of one point, for repeated multiplies of it.
class PointTable {
 public:
  explicit PointTable(const Point& p);
  Point Mul(const Scalar& s) const;

  // (Y+X, Y-X, 2d·T, 2Z): the form the addition law consumes.
  struct Cached {
    Fe ypx, ymx, t2d, z2;
  };

 private:
  std::array<Cached, 16> entries_;
};

// s·P for any P, and s·G from a process-wide table of G's multiples
// (no doublings). Both take every scalar bit through the same operations.
Point ScalarMul(const Scalar& s, const Point& p);
Point ScalarMulBase(const Scalar& s);

// Wire form: canonical affine x then y, 32 little-endian bytes each.
inline constexpr size_t kPointBytes = 64;
using PointBytes = std::array<uint8_t, kPointBytes>;

PointBytes EncodePoint(const Point& p);
// EncodePoint over a batch with a single field inversion.
std::vector<PointBytes> EncodePoints(const std::vector<Point>& points);
// Decodes untrusted bytes. Throws ProtocolError for a coordinate >= p, a
// point off the curve, or a point of small order (8·P the identity).
Point DecodePoint(const uint8_t in[kPointBytes]);

}  // namespace curve25519
}  // namespace pafs

#endif  // PAFS_OT_CURVE25519_H_
