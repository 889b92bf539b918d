// Deterministic fault injection for chaos testing and resilience demos.
//
// A FaultPlan describes *what* goes wrong (kind, probability, earliest op,
// budget) and a seed that makes the run reproducible. A FaultInjector owns
// the plan's mutable state — the op counter, the RNG stream, the remaining
// budget — and is shared by reference so that state survives across
// pipeline retries: a max_faults=1 plan fires once, the retry runs clean,
// and "drop mid-query is retried transparently" is actually testable.
//
// FaultInjectingChannel is a Channel decorator that consults the injector
// on every Send. Stack it *beneath* FramedChannel so a fault mangles one
// whole integrity frame, which is one whole flight (everything the
// endpoint sent since its last Recv): corruption then surfaces as
// ProtocolError at the peer, drops/truncations as a Recv deadline,
// disconnects as ChannelError{kClosed} — never as silent garbage. A
// plan's op index therefore counts flights, not logical Sends.
#ifndef PAFS_NET_FAULT_H_
#define PAFS_NET_FAULT_H_

#include <cstdint>
#include <mutex>
#include <string>

#include "net/channel.h"
#include "util/random.h"

namespace pafs {

enum class FaultKind {
  kNone,        // Injection disabled.
  kDrop,        // Swallow the message entirely.
  kTruncate,    // Deliver only the first half of the message.
  kCorrupt,     // Deliver with a few seeded bit flips.
  kDelay,       // Deliver intact after sleeping delay_seconds.
  kDisconnect,  // Close the channel and raise ChannelError{kClosed}.
};

const char* FaultKindName(FaultKind kind);
// Parses "drop", "truncate", "corrupt", "delay", "disconnect" (or "none");
// anything else returns kNone so a typo'd env var degrades to a clean run.
FaultKind FaultKindFromName(const std::string& name);

struct FaultPlan {
  FaultKind kind = FaultKind::kNone;
  uint64_t seed = 1;         // Drives both firing points and corrupt bits.
  double probability = 1.0;  // Per-send chance once past first_op.
  uint64_t first_op = 0;     // Sends before this index never fault.
  uint64_t max_faults = 1;   // Total budget; 0 = unlimited.
  double delay_seconds = 0.05;  // Sleep for kDelay.
  // Frame targeting: only sends whose payload is exactly this many bytes
  // may fault (0 = any length). Distinctive sizes pick out specific
  // flights — a resume hello under CRC framing is one 64-byte send (8-byte
  // frame header + magic, version, ticket length and the 32-byte ticket),
  // so target_len=64 aims the fault matrix straight at the resumption path.
  uint64_t target_len = 0;

  bool enabled() const { return kind != FaultKind::kNone && probability > 0; }

  // Reads PAFS_FAULT_KIND, PAFS_FAULT_SEED, PAFS_FAULT_PROB, PAFS_FAULT_OP,
  // PAFS_FAULT_MAX, PAFS_FAULT_LEN; unset variables keep the defaults
  // above. Lets any bench or demo binary run under faults without new
  // flags.
  static FaultPlan FromEnv();
};

// Shared, thread-safe fault oracle. One instance per emulated link (or per
// pipeline), consulted by however many decorator channels observe it.
class FaultInjector {
 public:
  explicit FaultInjector(const FaultPlan& plan)
      : plan_(plan), rng_(plan.seed) {}

  // Decides the fate of the next Send of `send_bytes` payload bytes. Draws
  // from the RNG on *every* op so the firing schedule depends only on the
  // seed, not on which ops were past first_op, matched target_len, or
  // whether the budget ran out.
  FaultKind NextSendFault(size_t send_bytes);

  uint64_t injected() const;
  const FaultPlan& plan() const { return plan_; }
  // Next bit index in [0, bound) to flip for kCorrupt; thread-safe.
  uint64_t NextCorruptBit(uint64_t bound);

 private:
  FaultPlan plan_;
  mutable std::mutex mutex_;
  Rng rng_;
  Rng corrupt_rng_{plan_.seed ^ 0xC0DEC0DEC0DEC0DEull};
  uint64_t op_ = 0;
  uint64_t injected_ = 0;
};

class FaultInjectingChannel : public Channel {
 public:
  // Wraps `inner`; neither it nor `injector` is owned.
  FaultInjectingChannel(Channel& inner, FaultInjector& injector)
      : inner_(inner), injector_(injector) {}

  void Send(const uint8_t* data, size_t n) override;
  void Recv(uint8_t* data, size_t n) override { inner_.Recv(data, n); }
  void Flush() override { inner_.Flush(); }
  void Close() override { inner_.Close(); }
  bool closed() const override { return inner_.closed(); }
  void set_recv_timeout_seconds(double seconds) override {
    inner_.set_recv_timeout_seconds(seconds);
  }
  void set_cancellation_token(const CancellationToken* token) override {
    Channel::set_cancellation_token(token);
    inner_.set_cancellation_token(token);
  }
  const ChannelStats& stats() const override { return inner_.stats(); }

 private:
  Channel& inner_;
  FaultInjector& injector_;
};

}  // namespace pafs

#endif  // PAFS_NET_FAULT_H_
