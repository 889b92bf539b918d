// Wall-clock network emulation: a Channel decorator that delays traffic
// according to a NetworkProfile (bandwidth per byte, half-RTT per
// direction flip). The analytic LAN/WAN estimates in the benches use the
// cost model instead (fast); this decorator exists to *validate* those
// estimates with real sleeps and for demos that want to feel the WAN.
#ifndef PAFS_NET_THROTTLE_H_
#define PAFS_NET_THROTTLE_H_

#include "net/channel.h"

namespace pafs {

class ThrottledChannel : public Channel {
 public:
  // Wraps `inner` (not owned). `time_scale` divides all delays, so tests
  // can emulate a WAN at 100x speed.
  ThrottledChannel(Channel& inner, const NetworkProfile& profile,
                   double time_scale = 1.0);

  void Send(const uint8_t* data, size_t n) override;
  void Recv(uint8_t* data, size_t n) override;
  void Flush() override { inner_.Flush(); }
  void Close() override { inner_.Close(); }
  bool closed() const override { return inner_.closed(); }
  void set_recv_timeout_seconds(double seconds) override {
    inner_.set_recv_timeout_seconds(seconds);
  }
  const ChannelStats& stats() const override { return inner_.stats(); }

  // Total time this endpoint has spent sleeping to emulate the link.
  double emulated_delay_seconds() const { return delay_seconds_; }

 private:
  // Mirrors the endpoint's flip accounting (channel.cc): half an RTT is
  // charged per direction flip, and the first send of a conversation is
  // not a flip, so emulated sleeps reconstruct TransferSeconds exactly.
  enum class LastOp { kNone, kSend, kRecv };

  Channel& inner_;
  NetworkProfile profile_;
  double time_scale_;
  double delay_seconds_ = 0;
  LastOp last_op_ = LastOp::kNone;
};

}  // namespace pafs

#endif  // PAFS_NET_THROTTLE_H_
