#include "net/fault.h"

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace pafs {

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNone:
      return "none";
    case FaultKind::kDrop:
      return "drop";
    case FaultKind::kTruncate:
      return "truncate";
    case FaultKind::kCorrupt:
      return "corrupt";
    case FaultKind::kDelay:
      return "delay";
    case FaultKind::kDisconnect:
      return "disconnect";
  }
  return "none";
}

FaultKind FaultInjector::NextSendFault(size_t send_bytes) {
  std::lock_guard<std::mutex> lock(mutex_);
  uint64_t op = op_++;
  double draw = rng_.NextDouble();  // Always draw: schedule is seed-only.
  if (!plan_.enabled()) return FaultKind::kNone;
  if (op < plan_.first_op) return FaultKind::kNone;
  if (plan_.target_len != 0 && send_bytes != plan_.target_len) {
    return FaultKind::kNone;  // Not the targeted frame; budget untouched.
  }
  if (plan_.max_faults != 0 && injected_ >= plan_.max_faults) {
    return FaultKind::kNone;
  }
  if (draw >= plan_.probability) return FaultKind::kNone;
  ++injected_;
  return plan_.kind;
}

uint64_t FaultInjector::injected() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return injected_;
}

uint64_t FaultInjector::NextCorruptBit(uint64_t bound) {
  std::lock_guard<std::mutex> lock(mutex_);
  return corrupt_rng_.NextU64Below(bound);
}

void FaultInjectingChannel::Send(const uint8_t* data, size_t n) {
  FaultKind fault = injector_.NextSendFault(n);
  if (fault != FaultKind::kNone) {
    static obs::Counter& injected = obs::GetCounter("faults.injected");
    injected.Add();
    obs::GetCounter(std::string("faults.injected.") + FaultKindName(fault))
        .Add();
    obs::TraceSpan::CurrentAddAttr("faults_injected", 1);
  }
  switch (fault) {
    case FaultKind::kNone:
      inner_.Send(data, n);
      return;
    case FaultKind::kDrop:
      return;  // The message never existed.
    case FaultKind::kTruncate:
      if (n >= 2) inner_.Send(data, n / 2);
      return;  // n < 2: nothing meaningful to truncate — degrade to drop.
    case FaultKind::kCorrupt: {
      std::vector<uint8_t> mangled(data, data + n);
      if (!mangled.empty()) {
        for (int i = 0; i < 3; ++i) {
          uint64_t bit = injector_.NextCorruptBit(mangled.size() * 8);
          mangled[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
        }
      }
      inner_.Send(mangled.data(), mangled.size());
      return;
    }
    case FaultKind::kDelay:
      std::this_thread::sleep_for(
          std::chrono::duration<double>(injector_.plan().delay_seconds));
      inner_.Send(data, n);
      return;
    case FaultKind::kDisconnect:
      inner_.Close();
      throw ChannelError(ChannelErrorKind::kClosed,
                         "injected disconnect mid-send");
  }
}

}  // namespace pafs
