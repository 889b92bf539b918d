// Integrity framing with flight coalescing: a Channel decorator that
// buffers every logical Send of a flight and emits the flight as
// [u32 length | u32 crc32 | payload] frames, each ONE inner Send, and
// verifies each frame on the receive side before handing bytes up.
//
// A flight is everything this endpoint sends before it next calls Recv,
// Flush or Close: sends reach the peer at the sender's next Recv, Flush or
// Close, never earlier. A protocol turn that ends without a Recv (the
// last reply before a server goes idle, a bye before a close) therefore
// calls Flush itself. A flight above kMaxFramePayload goes out as several
// full frames as it grows, so the pending buffer never holds more than
// one frame. The receiver reassembles payload across frames, so it reads
// one frame per logical Send (what framing wrote before flights) exactly
// as it reads one per flight; the wire format is the same.
//
// The raw MemChannelPair is a trusted in-process queue, so the base stack
// does not pay for framing. It exists for the fault-tolerance story: with
// frames, a corrupted or truncated message is *detected* (ProtocolError /
// deadline) instead of silently decoding into garbage labels, and a
// dropped message removes a whole frame so the byte stream never comes
// back misaligned. Every socket session (server and client) runs over it,
// and so do the chaos tests.
#ifndef PAFS_NET_FRAMING_H_
#define PAFS_NET_FRAMING_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "net/channel.h"

namespace pafs {

// CRC-32 (IEEE 802.3 polynomial, reflected) over `n` bytes.
uint32_t Crc32(const uint8_t* data, size_t n);

class FramedChannel : public Channel {
 public:
  // Payload bytes at which a growing flight emits a full frame. Small
  // enough that a flight's buffer (reserved whole, so it never regrows)
  // and the peer's frame read stay cheap; large enough that a flight of
  // garbled tables costs a few writes, not one per logical send.
  static constexpr size_t kMaxFramePayload = size_t{64} << 10;

  // Wraps `inner` (not owned). Both endpoints of a pair must agree on
  // framing: a framed sender to an unframed receiver desynchronizes.
  explicit FramedChannel(Channel& inner) : inner_(inner) {}

  // Appends to the pending flight; writes only when it fills a frame.
  void Send(const uint8_t* data, size_t n) override;
  // Flushes the pending flight, then reads.
  void Recv(uint8_t* data, size_t n) override;
  // Writes the pending flight as one frame and releases its buffer. If the
  // inner Send throws, the flight is lost with the transport.
  void Flush() override;
  // Flushes what the transport still takes, then closes it. Never throws:
  // a flight the transport refuses dies with it. Flushing touches the
  // pending flight, so close from the thread that sends; to unblock a
  // peer from another thread, close the inner transport instead.
  void Close() override;
  bool closed() const override { return inner_.closed(); }
  void set_recv_timeout_seconds(double seconds) override {
    inner_.set_recv_timeout_seconds(seconds);
  }
  void set_cancellation_token(const CancellationToken* token) override {
    Channel::set_cancellation_token(token);  // For our own checkpoints.
    inner_.set_cancellation_token(token);    // For the transport's slices.
  }
  // Stats are the inner channel's and therefore include the 8-byte frame
  // headers; fault-tolerant runs trade that overhead for detection.
  const ChannelStats& stats() const override { return inner_.stats(); }

  // Payload bytes sent but not yet written to the inner channel.
  size_t pending_bytes() const {
    return pending_.empty() ? 0 : pending_.size() - kHeaderBytes;
  }

 private:
  static constexpr size_t kHeaderBytes = 8;

  // Pulls one frame off the wire, verifies it, appends payload to buffer_.
  void FillOneFrame();

  Channel& inner_;
  // The pending flight: a header slot, then its payload (empty when none).
  std::vector<uint8_t> pending_;
  std::deque<uint8_t> buffer_;  // Verified payload bytes not yet consumed.
};

}  // namespace pafs

#endif  // PAFS_NET_FRAMING_H_
