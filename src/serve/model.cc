#include "serve/model.h"

#include <cstdlib>
#include <string>

#include "net/error.h"
#include "smc/common.h"

namespace pafs::serve {

namespace {

// Schema cardinalities and plan sizes are wire data on the client side;
// bound them so a malicious server cannot make a client allocate wildly.
constexpr uint64_t kMaxFeatures = 1u << 16;
constexpr uint64_t kMaxCardinality = 1u << 20;
constexpr uint64_t kMaxClasses = 1u << 12;

uint64_t RecvBounded(Channel& channel, uint64_t max, const char* what) {
  uint64_t v = channel.RecvU64();
  if (v > max) {
    throw ProtocolError(std::string("serve handshake: ") + what + " " +
                        std::to_string(v) + " exceeds bound " +
                        std::to_string(max));
  }
  return v;
}

}  // namespace

void SendSessionSetup(Channel& channel, const SessionSetup& setup) {
  channel.SendU64(static_cast<uint64_t>(setup.classifier));
  channel.SendU64(static_cast<uint64_t>(setup.num_classes));
  channel.SendU64(setup.features.size());
  for (const FeatureSpec& f : setup.features) {
    channel.SendBytes(std::vector<uint8_t>(f.name.begin(), f.name.end()));
    channel.SendU64(static_cast<uint64_t>(f.cardinality));
    channel.SendU64(f.sensitive ? 1 : 0);
  }
  channel.SendU64(setup.plan_features.size());
  for (int f : setup.plan_features) {
    channel.SendU64(static_cast<uint64_t>(f));
  }
}

SessionSetup RecvSessionSetup(Channel& channel) {
  SessionSetup setup;
  uint64_t classifier = RecvBounded(channel, 3, "classifier kind");
  setup.classifier = static_cast<ClassifierKind>(classifier);
  setup.num_classes =
      static_cast<int>(RecvBounded(channel, kMaxClasses, "class count"));
  if (setup.num_classes < 2) {
    throw ProtocolError("serve handshake: class count < 2");
  }
  uint64_t num_features = RecvBounded(channel, kMaxFeatures, "feature count");
  setup.features.reserve(num_features);
  for (uint64_t i = 0; i < num_features; ++i) {
    FeatureSpec spec;
    std::vector<uint8_t> name = channel.RecvBytes();
    spec.name.assign(name.begin(), name.end());
    spec.cardinality = static_cast<int>(
        RecvBounded(channel, kMaxCardinality, "feature cardinality"));
    if (spec.cardinality < 1) {
      throw ProtocolError("serve handshake: feature cardinality < 1");
    }
    spec.sensitive = RecvBounded(channel, 1, "sensitive flag") != 0;
    setup.features.push_back(std::move(spec));
  }
  uint64_t plan = RecvBounded(channel, num_features, "plan size");
  setup.plan_features.reserve(plan);
  for (uint64_t i = 0; i < plan; ++i) {
    uint64_t f = RecvBounded(channel, num_features - 1, "plan feature id");
    setup.plan_features.push_back(static_cast<int>(f));
  }
  return setup;
}

void SendClientHello(Channel& channel, const ClientHello& hello) {
  channel.SendU64(hello.magic);
  channel.SendU64(hello.version);
  channel.SendBytes(hello.ticket);
}

ClientHello RecvClientHello(Channel& channel) {
  ClientHello hello;
  hello.magic = channel.RecvU64();
  if (hello.magic != kWireMagic) {
    throw ProtocolError("serve: bad hello magic " +
                        std::to_string(hello.magic));
  }
  hello.version = channel.RecvU64();
  if (hello.version != kWireVersion) {
    throw ProtocolError("serve: bad hello version " +
                        std::to_string(hello.version));
  }
  hello.ticket = channel.RecvBytes();
  if (!hello.ticket.empty() && hello.ticket.size() != kResumeTicketBytes) {
    throw ProtocolError("serve: hello ticket is " +
                        std::to_string(hello.ticket.size()) +
                        " bytes, expected 0 or " +
                        std::to_string(kResumeTicketBytes));
  }
  return hello;
}

std::vector<uint8_t> RecvTicketFrame(Channel& channel) {
  std::vector<uint8_t> ticket = channel.RecvBytes();
  if (!ticket.empty() && ticket.size() != kResumeTicketBytes) {
    throw ProtocolError("serve: ticket frame is " +
                        std::to_string(ticket.size()) +
                        " bytes, expected 0 or " +
                        std::to_string(kResumeTicketBytes));
  }
  return ticket;
}

int DecodeClassIndex(const BitVec& output, int num_classes) {
  const uint32_t bits = static_cast<uint32_t>(BitsFor(num_classes));
  if (output.size() != bits) {
    throw ProtocolError("serve: classifier output has " +
                        std::to_string(output.size()) + " bits, want " +
                        std::to_string(bits));
  }
  const uint64_t c = output.ToU64(0, bits);
  if (c >= static_cast<uint64_t>(num_classes)) {
    throw ProtocolError("serve: decoded class " + std::to_string(c) +
                        " out of range (" + std::to_string(num_classes) +
                        " classes)");
  }
  return static_cast<int>(c);
}

bool ResumeDisabledByEnv() {
  const char* v = std::getenv("PAFS_NO_RESUME");
  return v != nullptr && std::strtoull(v, nullptr, 10) != 0;
}

}  // namespace pafs::serve
