// Two-party communication substrate. The paper evaluated on two networked
// machines; we substitute an in-process duplex channel that counts every
// byte and message round, plus a latency×bandwidth model that converts the
// traffic log into LAN/WAN wall-clock estimates (see DESIGN.md).
//
// Fault model: channels can be Close()d (shutdown propagates to the peer,
// unblocking any waiter with ChannelError{kClosed}), Recv can carry a
// deadline (ChannelError{kTimeout}), and every length-prefixed decode
// helper validates the untrusted length against a per-channel cap — and,
// where the protocol knows the exact size, against that expectation — so a
// corrupt prefix raises ProtocolError instead of a 2^60-byte allocation.
#ifndef PAFS_NET_CHANNEL_H_
#define PAFS_NET_CHANNEL_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "bignum/bigint.h"
#include "crypto/block.h"
#include "net/cancel.h"
#include "net/error.h"

namespace pafs {

// Default bound on any single length-prefixed message. Generous (the
// largest legitimate payloads — garbled forest tables — are a few MiB) but
// small enough that a corrupt u64 length cannot exhaust memory.
inline constexpr uint64_t kDefaultMaxMessageBytes = 64ull << 20;  // 64 MiB

// Traffic statistics for one endpoint of a channel. Both directions are
// counted so a single endpoint (e.g. one serving session's socket) can
// attribute its whole wire cost without asking the peer.
struct ChannelStats {
  uint64_t bytes_sent = 0;
  uint64_t messages_sent = 0;
  uint64_t bytes_received = 0;
  uint64_t messages_received = 0;
  // A "round" increments when the direction of traffic flips; protocol
  // latency cost is rounds * RTT/2. The very first send on a fresh (or
  // Reset) endpoint is not a flip — in a half-duplex conversation the two
  // endpoints' flip counts then agree instead of each starting 1 high.
  uint64_t direction_flips = 0;
};

// One endpoint of an in-process duplex byte channel. Endpoints come in
// pairs owned by a MemChannelPair; party 0 writes into party 1's inbox and
// vice versa. Recv blocks until enough bytes arrive, so the two protocol
// parties run on separate threads (one of which may be the caller's).
class Channel {
 public:
  virtual ~Channel() = default;

  // Delivery contract: a Send may be held back (FramedChannel coalesces a
  // flight into one frame), but it reaches the peer no later than this
  // endpoint's next Recv, Flush or Close. A protocol turn that ends
  // without a Recv must therefore Flush before it waits on anything else.
  virtual void Send(const uint8_t* data, size_t n) = 0;
  virtual void Recv(uint8_t* data, size_t n) = 0;
  // Writes out every held-back Send. No-op on channels that hold none;
  // decorators forward it.
  virtual void Flush() {}

  // Lifecycle. Close() shuts the transport down for *both* endpoints:
  // every blocked or future Recv/Send raises ChannelError{kClosed} (after
  // draining already-delivered bytes). Default no-ops let stat-only
  // decorators opt out; real transports and decorators forward.
  virtual void Close() {}
  virtual bool closed() const { return false; }

  // Deadline applied to each subsequent Recv on this endpoint; a Recv that
  // stays blocked past it raises ChannelError{kTimeout}. 0 = wait forever.
  virtual void set_recv_timeout_seconds(double seconds) { (void)seconds; }

  // Attaches a cooperative cancellation token (not owned; must outlive the
  // channel's use). SocketChannel polls it in every Send/Recv readiness
  // slice; protocol loops add explicit ThrowIfCancelled checkpoints where
  // compute dominates IO. Decorators override to forward to their inner
  // transport as well, so setting the token on the outermost layer arms
  // the whole stack. nullptr detaches.
  virtual void set_cancellation_token(const CancellationToken* token) {
    cancel_token_ = token;
  }
  const CancellationToken* cancellation_token() const { return cancel_token_; }
  // Raises ChannelError{kCancelled} if the attached token has fired.
  void ThrowIfCancelled(const char* what) const;

  // Cap enforced by the length-prefixed decode helpers below.
  void set_max_message_bytes(uint64_t cap) { max_message_bytes_ = cap; }
  uint64_t max_message_bytes() const { return max_message_bytes_; }

  // Convenience serializers used by every protocol layer.
  void SendU64(uint64_t v);
  uint64_t RecvU64();
  void SendBlock(const Block& b);
  Block RecvBlock();
  void SendBlocks(const std::vector<Block>& blocks);
  std::vector<Block> RecvBlocks();
  void SendBigInt(const BigInt& v);
  BigInt RecvBigInt();
  void SendBytes(const std::vector<uint8_t>& bytes);
  std::vector<uint8_t> RecvBytes();

  // Hardened variants for call sites that know the exact size the protocol
  // declares: a differing wire length raises ProtocolError before any
  // payload byte is consumed.
  std::vector<Block> RecvBlocksExpected(uint64_t expected);
  std::vector<uint8_t> RecvBytesExpected(uint64_t expected);

  virtual const ChannelStats& stats() const = 0;

 private:
  uint64_t max_message_bytes_ = kDefaultMaxMessageBytes;
  const CancellationToken* cancel_token_ = nullptr;
};

// In-memory duplex queue shared by a pair of endpoints.
class MemChannelPair {
 public:
  MemChannelPair();
  ~MemChannelPair();  // Out-of-line: Endpoint is an implementation detail.

  Channel& endpoint(int party);
  // Shuts both endpoints down (either endpoint's Close() does the same).
  void Close();
  bool closed() const;
  // Total traffic both ways.
  uint64_t TotalBytes() const;
  uint64_t TotalRounds() const;
  void ResetStats();

 private:
  class Endpoint;
  std::unique_ptr<Endpoint> a_;
  std::unique_ptr<Endpoint> b_;
};

// Converts measured traffic into an estimated wall-clock network time.
struct NetworkProfile {
  const char* name;
  double bandwidth_bytes_per_sec;
  double rtt_seconds;

  double TransferSeconds(uint64_t bytes, uint64_t rounds) const {
    return bytes / bandwidth_bytes_per_sec + rounds * rtt_seconds / 2.0;
  }
};

// 1 Gbps / 0.2 ms RTT, matching a same-rack deployment.
NetworkProfile LanProfile();
// 40 Mbps / 40 ms RTT, matching a 2016-era cloud client link.
NetworkProfile WanProfile();

}  // namespace pafs

#endif  // PAFS_NET_CHANNEL_H_
