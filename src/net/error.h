// Typed, recoverable transport failures. These are the one place the
// library throws: a peer dying mid-protocol, a receive deadline expiring,
// or malformed bytes arriving off the wire are *environment* faults, not
// programmer errors (PAFS_CHECK) and not parse results (Status) — they must
// unwind an in-flight protocol run so a supervisor (the serving client's
// RetryPolicy, the server's session loop, a chaos harness) can tear the
// session down and retry or drop it. See DESIGN.md "Fault tolerance" for
// the full taxonomy.
#ifndef PAFS_NET_ERROR_H_
#define PAFS_NET_ERROR_H_

#include <stdexcept>
#include <string>

namespace pafs {

// Base class for every recoverable transport/protocol fault. Catching this
// is the supervisor idiom: anything else escaping a protocol run is a bug.
class TransportError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

enum class ChannelErrorKind {
  kClosed,     // The peer (or a supervisor) shut the channel down.
  kTimeout,    // A Recv deadline expired with the peer silent.
  kCancelled,  // A CancellationToken fired mid-operation (net/cancel.h).
};

// The channel itself failed: the peer is gone or stalled. The payload that
// was in flight is unrecoverable; the session must be rebuilt.
class ChannelError : public TransportError {
 public:
  ChannelError(ChannelErrorKind kind, const std::string& what)
      : TransportError(what), kind_(kind) {}

  ChannelErrorKind kind() const { return kind_; }

 private:
  ChannelErrorKind kind_;
};

// The bytes arrived but do not decode as the protocol declared: a length
// prefix beyond the cap or the expected count, a failed integrity check, a
// group element that fails validation. Raised before any oversized allocation
// or out-of-range index can happen.
class ProtocolError : public TransportError {
 public:
  using TransportError::TransportError;
};

}  // namespace pafs

#endif  // PAFS_NET_ERROR_H_
