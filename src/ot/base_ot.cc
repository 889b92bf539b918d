#include "ot/base_ot.h"

#include <algorithm>

#include "crypto/sha256.h"
#include "obs/trace.h"
#include "ot/curve25519.h"
#include "util/random.h"

namespace pafs {

namespace {

using curve25519::kPointBytes;
using curve25519::Point;
using curve25519::PointBytes;
using curve25519::Scalar;

// Key derivation per Chou-Orlandi: H(A || B_j || key point || j), cut to
// one block. Hashing both public points binds the key to this transfer.
Block KdfBlock(const uint8_t* a, const uint8_t* b, const PointBytes& key,
               uint64_t index) {
  Sha256 h;
  h.Update(a, kPointBytes);
  h.Update(b, kPointBytes);
  h.Update(key.data(), key.size());
  uint8_t idx[8];
  for (int i = 0; i < 8; ++i) idx[i] = static_cast<uint8_t>(index >> (8 * i));
  h.Update(idx, 8);
  Sha256Digest digest = h.Finalize();
  return Block::FromBytes(digest.data());
}

}  // namespace

void BaseOtSend(Channel& channel,
                const std::vector<std::array<Block, 2>>& messages, Rng& rng) {
  obs::TraceSpan span("ot.base");
  const size_t n = messages.size();
  if (obs::Enabled()) {
    span.AddAttr("transfers", static_cast<double>(n));
    static obs::Counter& transfers = obs::GetCounter("ot.base.transfers");
    transfers.Add(n);
  }
  // Flight 1: A = a·G. Per Chou-Orlandi the receiver's B_j encodes its
  // choice; k0 = H(a·B_j), k1 = H(a·(B_j - A)).
  const Scalar a = curve25519::RandomScalar(rng);
  const Point big_a = curve25519::ScalarMulBase(a);
  const PointBytes a_bytes = curve25519::EncodePoint(big_a);
  channel.SendBytes(std::vector<uint8_t>(a_bytes.begin(), a_bytes.end()));

  // Flight 2: every B_j. a·(B_j - A) = a·B_j - a·A costs one addition
  // past the a·B_j that k0 needs.
  const std::vector<uint8_t> b_frame =
      channel.RecvBytesExpected(n * kPointBytes);
  const Point minus_aa = curve25519::Negate(curve25519::ScalarMul(a, big_a));
  std::vector<Point> keys(2 * n);
  for (size_t j = 0; j < n; ++j) {
    const Point big_b = curve25519::DecodePoint(&b_frame[j * kPointBytes]);
    keys[2 * j] = curve25519::ScalarMul(a, big_b);
    keys[2 * j + 1] = curve25519::Add(keys[2 * j], minus_aa);
  }
  const std::vector<PointBytes> key_bytes = curve25519::EncodePoints(keys);

  // Flight 3: both masked messages of every transfer in one frame.
  std::vector<Block> masked(2 * n);
  for (size_t j = 0; j < n; ++j) {
    const uint8_t* b = &b_frame[j * kPointBytes];
    masked[2 * j] =
        messages[j][0] ^ KdfBlock(a_bytes.data(), b, key_bytes[2 * j], j);
    masked[2 * j + 1] =
        messages[j][1] ^ KdfBlock(a_bytes.data(), b, key_bytes[2 * j + 1], j);
  }
  channel.SendBlocks(masked);
}

std::vector<Block> BaseOtRecv(Channel& channel, const BitVec& choices,
                              Rng& rng) {
  obs::TraceSpan span("ot.base");
  const size_t n = choices.size();
  if (obs::Enabled()) {
    span.AddAttr("transfers", static_cast<double>(n));
  }
  const std::vector<uint8_t> a_frame = channel.RecvBytesExpected(kPointBytes);
  const Point big_a = curve25519::DecodePoint(a_frame.data());

  // B_j = b_j·G, plus A where the choice is 1 (selected without a branch).
  std::vector<Scalar> b(n);
  std::vector<Point> big_b(n);
  for (size_t j = 0; j < n; ++j) {
    b[j] = curve25519::RandomScalar(rng);
    const Point b_g = curve25519::ScalarMulBase(b[j]);
    big_b[j] = curve25519::Select(b_g, curve25519::Add(b_g, big_a),
                                  choices.Get(j));
  }
  const std::vector<PointBytes> b_bytes = curve25519::EncodePoints(big_b);
  std::vector<uint8_t> b_frame(n * kPointBytes);
  for (size_t j = 0; j < n; ++j) {
    std::copy(b_bytes[j].begin(), b_bytes[j].end(), &b_frame[j * kPointBytes]);
  }
  channel.SendBytes(b_frame);
  // Out now, not at the next Recv: the peer's a·B_j overlap our b_j·A.
  channel.Flush();

  // The key points b_j·A, computed while the sender works on its a·B_j.
  const curve25519::PointTable a_table(big_a);
  std::vector<Point> keys(n);
  for (size_t j = 0; j < n; ++j) keys[j] = a_table.Mul(b[j]);
  const std::vector<PointBytes> key_bytes = curve25519::EncodePoints(keys);

  const std::vector<Block> masked = channel.RecvBlocksExpected(2 * n);
  std::vector<Block> out(n);
  for (size_t j = 0; j < n; ++j) {
    const uint64_t mask = 0 - static_cast<uint64_t>(choices.Get(j));
    const Block& c0 = masked[2 * j];
    const Block& c1 = masked[2 * j + 1];
    const Block chosen(c0.lo ^ (mask & (c0.lo ^ c1.lo)),
                       c0.hi ^ (mask & (c0.hi ^ c1.hi)));
    out[j] = chosen ^
             KdfBlock(a_frame.data(), b_bytes[j].data(), key_bytes[j], j);
  }
  return out;
}

}  // namespace pafs
