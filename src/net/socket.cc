#include "net/socket.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstring>
#include <utility>

#include "obs/trace.h"
#include "util/check.h"

namespace pafs {

namespace {

double MonotonicSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SetNonBlocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  PAFS_CHECK(flags >= 0);
  PAFS_CHECK(::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0);
}

[[noreturn]] void ThrowClosed(const std::string& what) {
  static obs::Counter& closed = obs::GetCounter("net.closed_errors");
  closed.Add();
  throw ChannelError(ChannelErrorKind::kClosed, what);
}

[[noreturn]] void ThrowTimeout(const std::string& what) {
  static obs::Counter& timeouts = obs::GetCounter("net.recv_timeouts");
  timeouts.Add();
  throw ChannelError(ChannelErrorKind::kTimeout, what);
}

// Builds the sockaddr for `address`. Returns the length used.
socklen_t FillSockaddr(const SocketAddress& address, sockaddr_storage* out) {
  std::memset(out, 0, sizeof(*out));
  if (address.family == SocketAddress::Family::kTcp) {
    auto* sin = reinterpret_cast<sockaddr_in*>(out);
    sin->sin_family = AF_INET;
    sin->sin_port = htons(address.port);
    std::string host =
        address.host == "localhost" || address.host.empty() ? "127.0.0.1"
                                                            : address.host;
    if (::inet_pton(AF_INET, host.c_str(), &sin->sin_addr) != 1) {
      throw TransportError("socket: unparseable IPv4 host \"" + host + "\"");
    }
    return sizeof(sockaddr_in);
  }
  auto* sun = reinterpret_cast<sockaddr_un*>(out);
  sun->sun_family = AF_UNIX;
  if (address.path.size() >= sizeof(sun->sun_path)) {
    throw TransportError("socket: unix path too long: " + address.path);
  }
  std::memcpy(sun->sun_path, address.path.c_str(), address.path.size() + 1);
  return static_cast<socklen_t>(offsetof(sockaddr_un, sun_path) +
                                address.path.size() + 1);
}

int NewSocket(SocketAddress::Family family) {
  int domain = family == SocketAddress::Family::kTcp ? AF_INET : AF_UNIX;
  int fd = ::socket(domain, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    throw TransportError(std::string("socket: ") + std::strerror(errno));
  }
  return fd;
}

}  // namespace

SocketAddress SocketAddress::Tcp(std::string host, uint16_t port) {
  SocketAddress a;
  a.family = Family::kTcp;
  a.host = std::move(host);
  a.port = port;
  return a;
}

SocketAddress SocketAddress::Unix(std::string path) {
  SocketAddress a;
  a.family = Family::kUnix;
  a.path = std::move(path);
  return a;
}

StatusOr<SocketAddress> SocketAddress::Parse(const std::string& spec) {
  if (spec.rfind("unix:", 0) == 0) {
    std::string path = spec.substr(5);
    if (path.empty()) {
      return Status::InvalidArgument("empty unix socket path: " + spec);
    }
    return Unix(path);
  }
  if (spec.rfind("tcp:", 0) == 0) {
    std::string rest = spec.substr(4);
    size_t colon = rest.rfind(':');
    if (colon == std::string::npos || colon + 1 == rest.size()) {
      return Status::InvalidArgument("expected tcp:HOST:PORT, got " + spec);
    }
    int port = 0;
    for (size_t i = colon + 1; i < rest.size(); ++i) {
      if (rest[i] < '0' || rest[i] > '9' || port > 65535) {
        return Status::InvalidArgument("bad port in " + spec);
      }
      port = port * 10 + (rest[i] - '0');
    }
    if (port > 65535) return Status::InvalidArgument("bad port in " + spec);
    return Tcp(rest.substr(0, colon), static_cast<uint16_t>(port));
  }
  return Status::InvalidArgument(
      "address must start with tcp: or unix:, got " + spec);
}

std::string SocketAddress::ToString() const {
  if (family == Family::kUnix) return "unix:" + path;
  return "tcp:" + host + ":" + std::to_string(port);
}

// ---------------------------------------------------------------------------
// SocketChannel

SocketChannel::SocketChannel(int fd) : fd_(fd) {
  PAFS_CHECK(fd_ >= 0);
  SetNonBlocking(fd_);
  // Harmless ENOTSUP/EOPNOTSUPP on UDS; round-trip-bound protocols cannot
  // afford Nagle on TCP.
  int one = 1;
  (void)::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

SocketChannel::~SocketChannel() {
  if (fd_ >= 0) ::close(fd_);
}

void SocketChannel::WaitReady(short events, double timeout_seconds,
                              const std::string& what) {
  double deadline =
      timeout_seconds > 0 ? MonotonicSeconds() + timeout_seconds : 0;
  for (;;) {
    if (closed()) ThrowClosed(std::string(what) + " on closed channel");
    // Cancellation point: the ≤100 ms poll slices below bound how long a
    // blocked operation can outlive its token.
    ThrowIfCancelled(what.c_str());
    int poll_ms = -1;
    if (deadline > 0) {
      double remain = deadline - MonotonicSeconds();
      if (remain <= 0) {
        ThrowTimeout(std::string(what) + " timed out after " +
                     std::to_string(timeout_seconds) + " s");
      }
      poll_ms = static_cast<int>(remain * 1000) + 1;
      // Wake at least every 100 ms so a cross-thread Close() is noticed
      // promptly even mid-deadline.
      if (poll_ms > 100) poll_ms = 100;
    } else {
      poll_ms = 100;
    }
    pollfd pfd{fd_, events, 0};
    int rc = ::poll(&pfd, 1, poll_ms);
    if (rc < 0) {
      if (errno == EINTR) continue;
      throw TransportError(std::string("poll: ") + std::strerror(errno));
    }
    if (rc > 0) return;  // Ready (or HUP/ERR — the read/write reports it).
  }
}

void SocketChannel::Send(const uint8_t* data, size_t n) {
  ThrowIfCancelled("send");
  size_t sent = 0;
  while (sent < n) {
    if (closed()) ThrowClosed("send on closed channel");
    ssize_t rc = ::send(fd_, data + sent, n - sent, MSG_NOSIGNAL);
    if (rc > 0) {
      sent += static_cast<size_t>(rc);
      continue;
    }
    if (rc < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // A stalled peer with full buffers is bounded by the same deadline
      // as Recv, so a wedged session dies typed instead of hanging.
      WaitReady(POLLOUT, recv_timeout_seconds_, "send");
      continue;
    }
    if (rc < 0 && errno == EINTR) continue;
    ThrowClosed(std::string("send: ") +
                (rc < 0 ? std::strerror(errno) : "peer gone"));
  }
  stats_.bytes_sent += n;
  ++stats_.messages_sent;
  bool flipped = last_op_ == LastOp::kRecv;
  if (flipped) ++stats_.direction_flips;
  last_op_ = LastOp::kSend;
  if (obs::Enabled()) {
    obs::TraceSpan::CurrentAddBytes(n);
    if (flipped) obs::TraceSpan::CurrentAddRounds(1);
    static obs::Counter& bytes_sent = obs::GetCounter("net.bytes_sent");
    static obs::Counter& messages = obs::GetCounter("net.messages_sent");
    bytes_sent.Add(n);
    messages.Add();
  }
}

void SocketChannel::Recv(uint8_t* data, size_t n) {
  ThrowIfCancelled("recv");
  size_t got = 0;
  while (got < n) {
    ssize_t rc = ::recv(fd_, data + got, n - got, 0);
    if (rc > 0) {
      got += static_cast<size_t>(rc);
      continue;
    }
    if (rc == 0) {
      // Orderly shutdown with fewer bytes than the protocol expected:
      // same drain-first kClosed semantics as the in-memory channel.
      ThrowClosed("recv on closed channel (peer shutdown)");
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      WaitReady(POLLIN, recv_timeout_seconds_, "recv of " +
                                                   std::to_string(n) +
                                                   " bytes");
      continue;
    }
    if (errno == EINTR) continue;
    ThrowClosed(std::string("recv: ") + std::strerror(errno));
  }
  last_op_ = LastOp::kRecv;
  stats_.bytes_received += n;
  ++stats_.messages_received;
  if (obs::Enabled()) {
    static obs::Counter& bytes_recv = obs::GetCounter("net.bytes_received");
    bytes_recv.Add(n);
  }
}

void SocketChannel::Close() {
  bool was_closed = closed_.exchange(true, std::memory_order_acq_rel);
  if (!was_closed) {
    // Both directions: the peer's blocked Recv sees EOF (kClosed), our own
    // blocked poll wakes with POLLHUP. The fd stays open until destruction
    // so concurrent users never touch a recycled descriptor.
    ::shutdown(fd_, SHUT_RDWR);
  }
}

// ---------------------------------------------------------------------------
// SocketListener

SocketListener::SocketListener(int fd, SocketAddress address)
    : fd_(fd), address_(std::move(address)) {
  unlink_on_close_ = address_.family == SocketAddress::Family::kUnix;
}

SocketListener::SocketListener(SocketListener&& other) noexcept
    : fd_(other.fd_.load(std::memory_order_acquire)),
      address_(std::move(other.address_)),
      unlink_on_close_(other.unlink_on_close_) {
  closed_.store(other.closed_.load(std::memory_order_acquire),
                std::memory_order_release);
  other.fd_.store(-1, std::memory_order_release);
  other.unlink_on_close_ = false;
  other.closed_.store(true, std::memory_order_release);
}

SocketListener SocketListener::Listen(const SocketAddress& address,
                                      int backlog) {
  if (address.family == SocketAddress::Family::kUnix) {
    ::unlink(address.path.c_str());  // Stale socket from a dead server.
  }
  int fd = NewSocket(address.family);
  if (address.family == SocketAddress::Family::kTcp) {
    int one = 1;
    (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  }
  sockaddr_storage storage;
  socklen_t len = FillSockaddr(address, &storage);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&storage), len) != 0 ||
      ::listen(fd, backlog) != 0) {
    std::string err = std::strerror(errno);
    ::close(fd);
    throw TransportError("listen on " + address.ToString() + ": " + err);
  }
  SetNonBlocking(fd);
  SocketAddress bound = address;
  if (address.family == SocketAddress::Family::kTcp && address.port == 0) {
    sockaddr_in sin;
    socklen_t sin_len = sizeof(sin);
    PAFS_CHECK(::getsockname(fd, reinterpret_cast<sockaddr*>(&sin),
                             &sin_len) == 0);
    bound.port = ntohs(sin.sin_port);
  }
  return SocketListener(fd, std::move(bound));
}

SocketListener::~SocketListener() { Close(); }

std::unique_ptr<SocketChannel> SocketListener::Accept(double timeout_seconds) {
  double deadline =
      timeout_seconds > 0 ? MonotonicSeconds() + timeout_seconds : 0;
  for (;;) {
    if (closed()) ThrowClosed("accept on closed listener");
    const int listen_fd = fd();
    int fd = ::accept4(listen_fd, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd >= 0) return std::make_unique<SocketChannel>(fd);
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      int poll_ms = 100;
      if (deadline > 0) {
        double remain = deadline - MonotonicSeconds();
        if (remain <= 0) return nullptr;
        poll_ms = std::min(poll_ms, static_cast<int>(remain * 1000) + 1);
      }
      pollfd pfd{listen_fd, POLLIN, 0};
      int rc = ::poll(&pfd, 1, poll_ms);
      if (rc < 0 && errno != EINTR) {
        throw TransportError(std::string("poll(accept): ") +
                             std::strerror(errno));
      }
      continue;
    }
    if (errno == EINTR || errno == ECONNABORTED) continue;
    if (closed()) ThrowClosed("accept on closed listener");
    throw TransportError(std::string("accept: ") + std::strerror(errno));
  }
}

std::unique_ptr<SocketChannel> SocketListener::TryAccept() {
  for (;;) {
    if (closed()) ThrowClosed("accept on closed listener");
    int fd = ::accept4(this->fd(), nullptr, nullptr, SOCK_CLOEXEC);
    if (fd >= 0) return std::make_unique<SocketChannel>(fd);
    if (errno == EAGAIN || errno == EWOULDBLOCK) return nullptr;
    if (errno == EINTR || errno == ECONNABORTED) continue;
    if (closed()) ThrowClosed("accept on closed listener");
    throw TransportError(std::string("accept: ") + std::strerror(errno));
  }
}

void SocketListener::Close() {
  bool was_closed = closed_.exchange(true, std::memory_order_acq_rel);
  const int fd = fd_.exchange(-1, std::memory_order_acq_rel);
  if (was_closed || fd < 0) return;
  ::shutdown(fd, SHUT_RDWR);  // Unwedge a blocked Accept.
  ::close(fd);
  if (unlink_on_close_) ::unlink(address_.path.c_str());
}

// ---------------------------------------------------------------------------
// Connector

std::unique_ptr<SocketChannel> SocketConnect(const SocketAddress& address,
                                             double timeout_seconds) {
  int fd = NewSocket(address.family);
  SetNonBlocking(fd);
  sockaddr_storage storage;
  socklen_t len = FillSockaddr(address, &storage);
  int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&storage), len);
  if (rc != 0 && errno != EINPROGRESS && errno != EAGAIN) {
    std::string err = std::strerror(errno);
    ::close(fd);
    ThrowClosed("connect to " + address.ToString() + ": " + err);
  }
  if (rc != 0) {
    // Nonblocking connect: wait for writability, then read the verdict.
    double deadline = MonotonicSeconds() +
                      (timeout_seconds > 0 ? timeout_seconds : 3600.0);
    for (;;) {
      double remain = deadline - MonotonicSeconds();
      if (remain <= 0) {
        ::close(fd);
        ThrowTimeout("connect to " + address.ToString() +
                     " timed out after " + std::to_string(timeout_seconds) +
                     " s (accept backlog full or peer unreachable)");
      }
      pollfd pfd{fd, POLLOUT, 0};
      int prc = ::poll(&pfd, 1, static_cast<int>(remain * 1000) + 1);
      if (prc < 0 && errno == EINTR) continue;
      if (prc > 0) break;
    }
    int so_error = 0;
    socklen_t so_len = sizeof(so_error);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &so_len) != 0 ||
        so_error != 0) {
      std::string err = std::strerror(so_error != 0 ? so_error : errno);
      ::close(fd);
      ThrowClosed("connect to " + address.ToString() + ": " + err);
    }
  }
  return std::make_unique<SocketChannel>(fd);
}

}  // namespace pafs
