// Property/fuzz tests across the circuit and MPC layers: random circuits
// must evaluate identically under plaintext semantics, half-gates
// garbling, classic garbling, the optimizer, GMW, and circuit
// serialization round-trips. This is the strongest cross-cutting
// correctness net in the repository.
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "circuit/builder.h"
#include "circuit/optimizer.h"
#include "circuit/serialize.h"
#include "gc/garble.h"
#include "net/channel.h"
#include "net/error.h"
#include "serve/model.h"
#include "sharing/gmw.h"
#include "util/random.h"

namespace pafs {
namespace {

// Generates a random circuit with mixed gate types, word ops, and muxes.
Circuit RandomCircuit(Rng& rng, uint32_t garbler_inputs,
                      uint32_t evaluator_inputs, int extra_ops) {
  CircuitBuilder b(garbler_inputs, evaluator_inputs);
  std::vector<uint32_t> wires;
  for (uint32_t i = 0; i < garbler_inputs; ++i) wires.push_back(b.GarblerInput(i));
  for (uint32_t i = 0; i < evaluator_inputs; ++i) {
    wires.push_back(b.EvaluatorInput(i));
  }
  auto pick = [&] { return wires[rng.NextU64Below(wires.size())]; };
  for (int op = 0; op < extra_ops; ++op) {
    switch (rng.NextU64Below(6)) {
      case 0:
        wires.push_back(b.Xor(pick(), pick()));
        break;
      case 1:
        wires.push_back(b.And(pick(), pick()));
        break;
      case 2:
        wires.push_back(b.Not(pick()));
        break;
      case 3:
        wires.push_back(b.Or(pick(), pick()));
        break;
      case 4: {
        CircuitBuilder::Word a = {pick(), pick(), pick()};
        CircuitBuilder::Word c = {pick(), pick(), pick()};
        for (uint32_t w : b.AddW(a, c)) wires.push_back(w);
        break;
      }
      case 5: {
        CircuitBuilder::Word t = {pick(), pick()};
        CircuitBuilder::Word f = {pick(), pick()};
        for (uint32_t w : b.Mux(pick(), t, f)) wires.push_back(w);
        break;
      }
    }
  }
  int num_outputs = 1 + static_cast<int>(rng.NextU64Below(8));
  for (int i = 0; i < num_outputs; ++i) b.AddOutput(pick());
  return b.Build();
}

BitVec RandomBits(Rng& rng, uint32_t n) {
  BitVec out(n);
  for (uint32_t i = 0; i < n; ++i) out.Set(i, rng.NextBool());
  return out;
}

BitVec GarbleEval(const Circuit& c, const BitVec& gb, const BitVec& eb,
                  uint64_t seed, bool classic) {
  Prg prg(Block(seed, ~seed));
  std::vector<Block> active;
  if (!classic) {
    GarbledCircuit gc = Garble(c, prg);
    for (uint32_t i = 0; i < c.garbler_inputs(); ++i) {
      active.push_back(gc.input_labels[i][gb.Get(i)]);
    }
    for (uint32_t i = 0; i < c.evaluator_inputs(); ++i) {
      active.push_back(gc.input_labels[c.garbler_inputs() + i][eb.Get(i)]);
    }
    return DecodeOutputs(EvaluateGarbled(c, gc.and_tables, active),
                         gc.output_decode);
  }
  ClassicGarbledCircuit gc = GarbleClassic(c, prg);
  for (uint32_t i = 0; i < c.garbler_inputs(); ++i) {
    active.push_back(gc.input_labels[i][gb.Get(i)]);
  }
  for (uint32_t i = 0; i < c.evaluator_inputs(); ++i) {
    active.push_back(gc.input_labels[c.garbler_inputs() + i][eb.Get(i)]);
  }
  return DecodeOutputs(EvaluateClassic(c, gc.and_tables, active),
                       gc.output_decode);
}

TEST(FuzzTest, GarblingAgreesWithPlaintextOnRandomCircuits) {
  Rng rng(0xF00D);
  for (int trial = 0; trial < 40; ++trial) {
    uint32_t g = 1 + rng.NextU64Below(6);
    uint32_t e = 1 + rng.NextU64Below(6);
    Circuit c = RandomCircuit(rng, g, e, 20 + trial);
    for (int input_trial = 0; input_trial < 4; ++input_trial) {
      BitVec gb = RandomBits(rng, g);
      BitVec eb = RandomBits(rng, e);
      BitVec want = c.Evaluate(gb, eb);
      ASSERT_TRUE(GarbleEval(c, gb, eb, trial * 7 + input_trial, false) ==
                  want)
          << "half-gates trial " << trial;
      ASSERT_TRUE(GarbleEval(c, gb, eb, trial * 11 + input_trial, true) ==
                  want)
          << "classic trial " << trial;
    }
  }
}

TEST(FuzzTest, OptimizerAgreesWithPlaintextOnRandomCircuits) {
  Rng rng(0xBEEF);
  for (int trial = 0; trial < 60; ++trial) {
    uint32_t g = 1 + rng.NextU64Below(5);
    uint32_t e = 1 + rng.NextU64Below(5);
    Circuit c = RandomCircuit(rng, g, e, 30);
    OptimizeStats stats;
    Circuit opt = OptimizeCircuit(c, &stats);
    EXPECT_LE(stats.and_after, stats.and_before);
    for (int input_trial = 0; input_trial < 6; ++input_trial) {
      BitVec gb = RandomBits(rng, g);
      BitVec eb = RandomBits(rng, e);
      ASSERT_TRUE(opt.Evaluate(gb, eb) == c.Evaluate(gb, eb))
          << "trial " << trial;
    }
  }
}

TEST(FuzzTest, SerializationRoundTripsRandomCircuits) {
  Rng rng(0xCAFE);
  for (int trial = 0; trial < 25; ++trial) {
    Circuit c = RandomCircuit(rng, 3, 3, 25);
    MemChannelPair channel;
    std::thread sender([&] { SendCircuit(channel.endpoint(0), c); });
    Circuit received = RecvCircuit(channel.endpoint(1));
    sender.join();
    ASSERT_EQ(received.num_wires(), c.num_wires());
    ASSERT_EQ(received.gates().size(), c.gates().size());
    BitVec gb = RandomBits(rng, 3);
    BitVec eb = RandomBits(rng, 3);
    ASSERT_TRUE(received.Evaluate(gb, eb) == c.Evaluate(gb, eb));
  }
}

TEST(FuzzTest, GmwAgreesWithPlaintextOnRandomCircuits) {
  MemChannelPair channel;
  GmwParty p0(0, channel.endpoint(0));
  GmwParty p1(1, channel.endpoint(1));
  Rng rng0(1), rng1(2);
  std::thread setup([&] { p0.Setup(rng0); });
  p1.Setup(rng1);
  setup.join();

  Rng rng(0xD1CE);
  for (int trial = 0; trial < 12; ++trial) {
    uint32_t g = 1 + rng.NextU64Below(4);
    uint32_t e = 1 + rng.NextU64Below(4);
    Circuit c = RandomCircuit(rng, g, e, 25);
    BitVec gb = RandomBits(rng, g);
    BitVec eb = RandomBits(rng, e);
    BitVec want = c.Evaluate(gb, eb);
    BitVec out0, out1;
    std::thread t([&] { out0 = p0.Evaluate(c, gb, rng0); });
    out1 = p1.Evaluate(c, eb, rng1);
    t.join();
    ASSERT_TRUE(out0 == want) << "trial " << trial;
    ASSERT_TRUE(out1 == want) << "trial " << trial;
  }
}

TEST(FuzzTest, OptimizedCircuitsRunOnGmw) {
  // Full composition on the sharing backend too.
  MemChannelPair channel;
  GmwParty p0(0, channel.endpoint(0));
  GmwParty p1(1, channel.endpoint(1));
  Rng rng0(3), rng1(4);
  std::thread setup([&] { p0.Setup(rng0); });
  p1.Setup(rng1);
  setup.join();
  Rng rng(0x5EED);
  for (int trial = 0; trial < 6; ++trial) {
    Circuit c = OptimizeCircuit(RandomCircuit(rng, 3, 3, 25), nullptr);
    BitVec gb = RandomBits(rng, 3);
    BitVec eb = RandomBits(rng, 3);
    BitVec want = c.Evaluate(gb, eb);
    BitVec out0, out1;
    std::thread t([&] { out0 = p0.Evaluate(c, gb, rng0); });
    out1 = p1.Evaluate(c, eb, rng1);
    t.join();
    ASSERT_TRUE(out0 == want);
    ASSERT_TRUE(out1 == want);
  }
}

// Single-threaded capture/replay channel for decoder fuzzing: Send
// records the encoder's bytes, Recv replays (possibly mangled) bytes to
// the decoder and fails typed when the stream runs dry — the in-memory
// analogue of a peer hanging up mid-handshake.
class ReplayChannel : public Channel {
 public:
  explicit ReplayChannel(std::vector<uint8_t> bytes)
      : bytes_(std::move(bytes)) {}

  void Send(const uint8_t* data, size_t n) override {
    bytes_.insert(bytes_.end(), data, data + n);
  }
  void Recv(uint8_t* data, size_t n) override {
    if (pos_ + n > bytes_.size()) {
      throw ChannelError(ChannelErrorKind::kClosed, "replay exhausted");
    }
    std::memcpy(data, bytes_.data() + pos_, n);
    pos_ += n;
  }
  const ChannelStats& stats() const override { return stats_; }

  const std::vector<uint8_t>& bytes() const { return bytes_; }

 private:
  std::vector<uint8_t> bytes_;
  size_t pos_ = 0;
  ChannelStats stats_;
};

serve::SessionSetup ReferenceSetup() {
  serve::SessionSetup setup;
  setup.classifier = ClassifierKind::kNaiveBayes;
  setup.num_classes = 3;
  setup.features = {{"age", 4, false},
                    {"dose", 8, false},
                    {"vkorc1", 3, true},
                    {"cyp2c9", 6, true}};
  setup.plan_features = {0, 1};
  return setup;
}

TEST(FuzzTest, SessionSetupDecoderSurvivesTruncation) {
  // Every proper prefix of a valid handshake must fail typed: the decoder
  // sees a peer that died mid-setup, never an out-of-range index or hang.
  ReplayChannel encoder({});
  serve::SendSessionSetup(encoder, ReferenceSetup());
  const std::vector<uint8_t> valid = encoder.bytes();
  ASSERT_GT(valid.size(), 16u);

  for (size_t cut = 0; cut < valid.size(); ++cut) {
    ReplayChannel ch(
        std::vector<uint8_t>(valid.begin(), valid.begin() + cut));
    EXPECT_THROW(serve::RecvSessionSetup(ch), TransportError)
        << "prefix of " << cut << " bytes decoded";
  }
  // The untruncated stream still round-trips.
  ReplayChannel full(valid);
  serve::SessionSetup out = serve::RecvSessionSetup(full);
  EXPECT_EQ(out.features.size(), 4u);
  EXPECT_EQ(out.plan_features, std::vector<int>({0, 1}));
}

TEST(FuzzTest, SessionSetupDecoderSurvivesBitFlips) {
  ReplayChannel encoder({});
  serve::SendSessionSetup(encoder, ReferenceSetup());
  const std::vector<uint8_t> valid = encoder.bytes();

  Rng rng(0x5E55);
  for (int trial = 0; trial < 400; ++trial) {
    std::vector<uint8_t> mangled = valid;
    size_t bit = rng.NextU64Below(mangled.size() * 8);
    mangled[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    ReplayChannel ch(std::move(mangled));
    try {
      serve::SessionSetup out = serve::RecvSessionSetup(ch);
      // A surviving flip (e.g. inside a feature name) must still satisfy
      // every decoder invariant the server relies on downstream.
      EXPECT_GE(out.num_classes, 2);
      for (int f : out.plan_features) {
        EXPECT_GE(f, 0);
        EXPECT_LT(f, static_cast<int>(out.features.size()));
      }
      for (const auto& spec : out.features) {
        EXPECT_GE(spec.cardinality, 1);
      }
    } catch (const TransportError&) {
      // Typed rejection: the expected fate of most flips.
    }
  }
}

TEST(FuzzTest, SessionSetupDecoderSurvivesRandomBytes) {
  Rng rng(0xD00F);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<uint8_t> junk(rng.NextU64Below(256));
    rng.FillBytes(junk.data(), junk.size());
    ReplayChannel ch(std::move(junk));
    try {
      serve::RecvSessionSetup(ch);
      // Astronomically unlikely but legal: random bytes that happen to
      // decode. The invariant is only "typed error or valid parse".
    } catch (const TransportError&) {
    }
  }
}

TEST(FuzzTest, ClientHelloDecoderSurvivesTruncation) {
  // v3 hellos carry a resumption ticket; a peer dying anywhere inside the
  // hello must surface typed, never as a hang or a bogus ticket.
  serve::ClientHello hello;
  hello.ticket.assign(serve::kResumeTicketBytes, 0x42);
  ReplayChannel encoder({});
  serve::SendClientHello(encoder, hello);
  const std::vector<uint8_t> valid = encoder.bytes();
  ASSERT_GT(valid.size(), serve::kResumeTicketBytes);

  for (size_t cut = 0; cut < valid.size(); ++cut) {
    ReplayChannel ch(
        std::vector<uint8_t>(valid.begin(), valid.begin() + cut));
    EXPECT_THROW(serve::RecvClientHello(ch), TransportError)
        << "prefix of " << cut << " bytes decoded";
  }
  ReplayChannel full(valid);
  serve::ClientHello out = serve::RecvClientHello(full);
  EXPECT_EQ(out.ticket, hello.ticket);
}

TEST(FuzzTest, ClientHelloDecoderSurvivesBitFlipsAndForgedTickets) {
  serve::ClientHello hello;
  hello.ticket.assign(serve::kResumeTicketBytes, 0x42);
  ReplayChannel encoder({});
  serve::SendClientHello(encoder, hello);
  const std::vector<uint8_t> valid = encoder.bytes();

  Rng rng(0x7E57);
  for (int trial = 0; trial < 400; ++trial) {
    std::vector<uint8_t> mangled = valid;
    size_t bit = rng.NextU64Below(mangled.size() * 8);
    mangled[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    ReplayChannel ch(std::move(mangled));
    try {
      serve::ClientHello out = serve::RecvClientHello(ch);
      // A flip inside the ticket body decodes fine — it is a *forged*
      // ticket, and rejecting forgeries is the resume cache's job (a
      // lookup miss), not the decoder's. The decoder's invariant is only
      // that a parsed ticket has the exact width.
      EXPECT_TRUE(out.ticket.empty() ||
                  out.ticket.size() == serve::kResumeTicketBytes);
    } catch (const TransportError&) {
      // Typed rejection: flips in magic, version, or the length word.
    }
  }
}

TEST(FuzzTest, ClientHelloDecoderSurvivesRandomBytes) {
  Rng rng(0xF8E5);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<uint8_t> junk(rng.NextU64Below(128));
    rng.FillBytes(junk.data(), junk.size());
    ReplayChannel ch(std::move(junk));
    try {
      serve::RecvClientHello(ch);
    } catch (const TransportError&) {
    }
  }
}

TEST(FuzzTest, TicketFrameDecoderSurvivesMangling) {
  // The server->client ticket frame: empty (resumption disabled) or
  // exactly kResumeTicketBytes. Truncations, flips, and junk must all end
  // typed or as a frame that still satisfies that width invariant.
  ReplayChannel encoder({});
  encoder.SendBytes(std::vector<uint8_t>(serve::kResumeTicketBytes, 0x6B));
  const std::vector<uint8_t> valid = encoder.bytes();

  for (size_t cut = 0; cut < valid.size(); ++cut) {
    ReplayChannel ch(
        std::vector<uint8_t>(valid.begin(), valid.begin() + cut));
    EXPECT_THROW(serve::RecvTicketFrame(ch), TransportError)
        << "prefix of " << cut << " bytes decoded";
  }

  Rng rng(0x71CC);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<uint8_t> mangled = valid;
    size_t bit = rng.NextU64Below(mangled.size() * 8);
    mangled[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    ReplayChannel ch(std::move(mangled));
    try {
      std::vector<uint8_t> ticket = serve::RecvTicketFrame(ch);
      EXPECT_TRUE(ticket.empty() ||
                  ticket.size() == serve::kResumeTicketBytes);
    } catch (const TransportError&) {
    }
  }

  // The disabled-resumption frame (empty payload) round-trips too.
  ReplayChannel disabled({});
  disabled.SendBytes(std::vector<uint8_t>{});
  ReplayChannel decode(disabled.bytes());
  EXPECT_TRUE(serve::RecvTicketFrame(decode).empty());
}

TEST(FuzzTest, OptimizedCircuitsGarbleCorrectly) {
  // The composition used in production: build -> optimize -> garble.
  Rng rng(0xABCD);
  for (int trial = 0; trial < 20; ++trial) {
    uint32_t g = 1 + rng.NextU64Below(4);
    uint32_t e = 1 + rng.NextU64Below(4);
    Circuit c = OptimizeCircuit(RandomCircuit(rng, g, e, 30), nullptr);
    BitVec gb = RandomBits(rng, g);
    BitVec eb = RandomBits(rng, e);
    ASSERT_TRUE(GarbleEval(c, gb, eb, trial, false) == c.Evaluate(gb, eb));
  }
}

}  // namespace
}  // namespace pafs
