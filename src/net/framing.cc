#include "net/framing.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace pafs {

namespace {

struct Crc32Table {
  uint32_t t[256];
  Crc32Table() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
  }
};

void PutU32(uint8_t* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out[i] = static_cast<uint8_t>(v >> (8 * i));
}

uint32_t GetU32(const uint8_t* in) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(in[i]) << (8 * i);
  return v;
}

}  // namespace

uint32_t Crc32(const uint8_t* data, size_t n) {
  static const Crc32Table table;
  uint32_t c = 0xFFFFFFFFu;
  for (size_t i = 0; i < n; ++i) {
    c = table.t[(c ^ data[i]) & 0xFF] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

void FramedChannel::Send(const uint8_t* data, size_t n) {
  while (n > 0) {
    if (pending_.empty()) {
      pending_.reserve(kHeaderBytes + kMaxFramePayload);
      pending_.resize(kHeaderBytes);
    }
    const size_t room = kHeaderBytes + kMaxFramePayload - pending_.size();
    const size_t take = std::min(n, room);
    pending_.insert(pending_.end(), data, data + take);
    data += take;
    n -= take;
    if (take == room) Flush();
  }
}

void FramedChannel::Flush() {
  if (pending_.empty()) return;
  // Moved out first (leaving pending_ empty), so the buffer's capacity is
  // released whether or not the write succeeds: an idle session keeps no
  // grown buffer.
  std::vector<uint8_t> frame = std::move(pending_);
  const size_t n = frame.size() - kHeaderBytes;
  PutU32(frame.data(), static_cast<uint32_t>(n));
  PutU32(frame.data() + 4, Crc32(frame.data() + kHeaderBytes, n));
  // One atomic inner Send per frame, so a fault decorator beneath us can
  // only drop/truncate/corrupt whole frames — never interleave halves.
  inner_.Send(frame.data(), frame.size());
}

void FramedChannel::Close() {
  try {
    Flush();
  } catch (const TransportError&) {
    // The transport is going down anyway; its error is the peer's news.
  }
  inner_.Close();
}

void FramedChannel::FillOneFrame() {
  uint8_t header[8];
  inner_.Recv(header, 8);
  uint32_t len = GetU32(header);
  uint32_t want_crc = GetU32(header + 4);
  if (len > max_message_bytes()) {
    static obs::Counter& bad = obs::GetCounter("net.integrity_failures");
    bad.Add();
    throw ProtocolError("framing: frame length " + std::to_string(len) +
                        " exceeds cap " + std::to_string(max_message_bytes()));
  }
  // Drop the consumed prefix first, so the buffer only ever holds the
  // message being reassembled; then read the payload into its tail.
  buffer_.erase(buffer_.begin(), buffer_.begin() + read_);
  read_ = 0;
  const size_t start = buffer_.size();
  buffer_.resize(start + len);
  uint8_t* payload = buffer_.data() + start;
  try {
    if (len > 0) inner_.Recv(payload, len);
  } catch (...) {
    buffer_.resize(start);  // A frame cut short is never consumed either.
    throw;
  }
  if (Crc32(payload, len) != want_crc) {
    buffer_.resize(start);  // No byte of a bad frame is ever consumed.
    static obs::Counter& bad = obs::GetCounter("net.integrity_failures");
    bad.Add();
    throw ProtocolError("framing: crc mismatch on " + std::to_string(len) +
                        "-byte frame");
  }
}

void FramedChannel::Recv(uint8_t* data, size_t n) {
  Flush();  // Whatever this endpoint sent is what the peer waits on.
  while (buffer_.size() - read_ < n) FillOneFrame();
  std::copy_n(buffer_.data() + read_, n, data);
  read_ += n;
  if (read_ == buffer_.size()) {
    buffer_ = std::vector<uint8_t>();
    read_ = 0;
  }
}

}  // namespace pafs
