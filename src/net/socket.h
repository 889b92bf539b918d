// Real wire transport: nonblocking TCP and Unix-domain socket channels
// implementing the Channel interface, so every protocol in the library
// (gc/ot/gmw/smc/pipeline) runs unmodified over loopback or a LAN. The
// in-memory MemChannelPair remains the default for benchmarks that want
// exact traffic accounting without kernel noise; SocketChannel is the
// deployment shape the serving layer (src/serve) builds on.
//
// Semantics match the in-memory channel:
//  - Send/Recv move exactly n bytes or raise a typed error.
//  - Close() shuts the transport down for both directions (shutdown(2)),
//    so a peer blocked in Recv unwedges with ChannelError{kClosed} after
//    draining already-delivered bytes (half-closed-socket semantics come
//    from the kernel for free).
//  - set_recv_timeout_seconds() bounds each Recv; expiry raises
//    ChannelError{kTimeout}. Sends that stay unwritable past the same
//    bound (a stalled peer with full buffers) time out too.
//  - stats() counts both directions plus direction flips, and mirrors the
//    MemChannelPair telemetry (net.bytes_sent / net.bytes_received and
//    per-span attribution) so --breakdown works identically over the wire.
//
// Threading: one thread may Send while another Recvs; Close() may be
// called from any thread (supervisor idiom). Destruction must not race
// with in-flight operations — owners join their session threads first.
#ifndef PAFS_NET_SOCKET_H_
#define PAFS_NET_SOCKET_H_

#include <cstdint>
#include <atomic>
#include <memory>
#include <string>

#include "net/channel.h"
#include "util/status.h"

namespace pafs {

// A TCP endpoint (numeric IPv4 host + port) or a Unix-domain socket path.
struct SocketAddress {
  enum class Family { kTcp, kUnix };

  Family family = Family::kTcp;
  std::string host;   // kTcp: dotted quad ("127.0.0.1"); "localhost" ok.
  uint16_t port = 0;  // kTcp: 0 asks the kernel for an ephemeral port.
  std::string path;   // kUnix: filesystem path (<= ~107 bytes).

  static SocketAddress Tcp(std::string host, uint16_t port);
  static SocketAddress Unix(std::string path);
  // Parses "tcp:HOST:PORT" or "unix:PATH" (the CLI/bench spelling).
  static StatusOr<SocketAddress> Parse(const std::string& spec);

  std::string ToString() const;  // Round-trips through Parse.
};

// A connected stream socket as a Channel. Owns the fd (nonblocking);
// readiness waits go through poll(2) so deadlines are honored even while
// blocked, and Close() from another thread unwedges the waiter.
class SocketChannel final : public Channel {
 public:
  // Takes ownership of a *connected* fd and switches it to nonblocking.
  // TCP fds get TCP_NODELAY: the protocols are round-trip bound and must
  // not pay Nagle delays on half-duplex flips.
  explicit SocketChannel(int fd);
  ~SocketChannel() override;

  SocketChannel(const SocketChannel&) = delete;
  SocketChannel& operator=(const SocketChannel&) = delete;

  void Send(const uint8_t* data, size_t n) override;
  void Recv(uint8_t* data, size_t n) override;
  void Close() override;
  bool closed() const override {
    return closed_.load(std::memory_order_acquire);
  }
  void set_recv_timeout_seconds(double seconds) override {
    recv_timeout_seconds_ = seconds;
  }
  const ChannelStats& stats() const override { return stats_; }

  int fd() const { return fd_; }

 private:
  // Polls fd_ for `events` until ready, the deadline passes (kTimeout),
  // or the channel is closed under us (kClosed).
  void WaitReady(short events, double timeout_seconds,
                 const std::string& what);

  int fd_;
  std::atomic<bool> closed_{false};
  double recv_timeout_seconds_ = 0;
  ChannelStats stats_;
  enum class LastOp { kNone, kSend, kRecv };
  LastOp last_op_ = LastOp::kNone;
};

// Listening socket (TCP or UDS). Accept() hands out connected
// SocketChannels; the raw fd() is exposed for epoll-driven acceptors.
class SocketListener {
 public:
  // Binds and listens, or throws TransportError (address in use, bad
  // path, ...). A kUnix address unlinks any stale socket file first and
  // removes its own on destruction.
  static SocketListener Listen(const SocketAddress& address,
                               int backlog = 128);
  ~SocketListener();

  SocketListener(SocketListener&& other) noexcept;
  SocketListener& operator=(SocketListener&&) = delete;
  SocketListener(const SocketListener&) = delete;
  SocketListener& operator=(const SocketListener&) = delete;

  // Accepts one pending connection. timeout_seconds > 0 bounds the wait
  // and returns nullptr on expiry; 0 waits forever (until Close()).
  // Throws ChannelError{kClosed} once the listener is closed.
  std::unique_ptr<SocketChannel> Accept(double timeout_seconds = 0);
  // Nonblocking accept for epoll-driven acceptors: nullptr when no
  // connection is pending. Throws like Accept on a closed listener.
  std::unique_ptr<SocketChannel> TryAccept();

  // The bound address; for TCP port 0 this carries the kernel-assigned
  // ephemeral port, so tests and benches can listen on "any port".
  const SocketAddress& local_address() const { return address_; }
  int fd() const { return fd_.load(std::memory_order_acquire); }

  void Close();
  bool closed() const { return closed_.load(std::memory_order_acquire); }

 private:
  SocketListener(int fd, SocketAddress address);

  // Atomic: Close() on one thread clears it while Accept() polls it on
  // another.
  std::atomic<int> fd_;
  std::atomic<bool> closed_{false};
  SocketAddress address_;
  bool unlink_on_close_ = false;
};

// Connects to a listener with a bounded wait. Throws ChannelError
// {kTimeout} when the peer does not answer in time and {kClosed} when the
// connection is refused or the address unreachable.
std::unique_ptr<SocketChannel> SocketConnect(const SocketAddress& address,
                                             double timeout_seconds = 5.0);

}  // namespace pafs

#endif  // PAFS_NET_SOCKET_H_
