// Tests for garbling and the two-party GC protocol. The key property
// throughout: the garbled execution matches Circuit::Evaluate bit-for-bit
// on every input. The kernel cases cover both the half-gates and classic
// schemes; the protocol speaks half-gates only.
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "circuit/builder.h"
#include "crypto/cpu_features.h"
#include "gc/garble.h"
#include "gc/protocol.h"
#include "net/channel.h"
#include "ot/iknp.h"
#include "ot/ot_pool.h"
#include "util/parallel.h"
#include "util/random.h"

namespace pafs {
namespace {

// Local garble-then-evaluate with chosen input bits (no network, no OT).
BitVec GarbleEvalLocal(const Circuit& circuit, const BitVec& garbler_bits,
                       const BitVec& evaluator_bits, uint64_t seed,
                       bool classic = false) {
  Prg prg(Block(seed, seed + 1));
  std::vector<Block> active;
  BitVec decode;
  if (!classic) {
    GarbledCircuit gc = Garble(circuit, prg);
    for (uint32_t i = 0; i < circuit.garbler_inputs(); ++i) {
      active.push_back(gc.input_labels[i][garbler_bits.Get(i)]);
    }
    for (uint32_t i = 0; i < circuit.evaluator_inputs(); ++i) {
      active.push_back(
          gc.input_labels[circuit.garbler_inputs() + i][evaluator_bits.Get(i)]);
    }
    return DecodeOutputs(EvaluateGarbled(circuit, gc.and_tables, active),
                         gc.output_decode);
  }
  ClassicGarbledCircuit gc = GarbleClassic(circuit, prg);
  for (uint32_t i = 0; i < circuit.garbler_inputs(); ++i) {
    active.push_back(gc.input_labels[i][garbler_bits.Get(i)]);
  }
  for (uint32_t i = 0; i < circuit.evaluator_inputs(); ++i) {
    active.push_back(
        gc.input_labels[circuit.garbler_inputs() + i][evaluator_bits.Get(i)]);
  }
  return DecodeOutputs(EvaluateClassic(circuit, gc.and_tables, active),
                       gc.output_decode);
}

Circuit BuildAdderCircuit(uint32_t width) {
  CircuitBuilder b(width, width);
  b.AddOutputWord(b.AddW(b.GarblerWord(0, width), b.EvaluatorWord(0, width)));
  return b.Build();
}

TEST(GarbleTest, SingleAndGateExhaustive) {
  CircuitBuilder b(1, 1);
  b.AddOutput(b.And(b.GarblerInput(0), b.EvaluatorInput(0)));
  Circuit c = b.Build();
  for (int g = 0; g < 2; ++g) {
    for (int e = 0; e < 2; ++e) {
      BitVec got = GarbleEvalLocal(c, BitVec::FromU64(g, 1),
                                   BitVec::FromU64(e, 1), 42);
      EXPECT_EQ(got.Get(0), g && e) << g << "&" << e;
    }
  }
}

TEST(GarbleTest, XorNotAndMixExhaustive) {
  CircuitBuilder b(2, 2);
  auto g0 = b.GarblerInput(0);
  auto g1 = b.GarblerInput(1);
  auto e0 = b.EvaluatorInput(0);
  auto e1 = b.EvaluatorInput(1);
  b.AddOutput(b.Xor(b.And(g0, e0), b.Not(b.And(g1, e1))));
  b.AddOutput(b.Or(g0, e1));
  Circuit c = b.Build();
  for (uint64_t g = 0; g < 4; ++g) {
    for (uint64_t e = 0; e < 4; ++e) {
      BitVec expected = c.Evaluate(BitVec::FromU64(g, 2), BitVec::FromU64(e, 2));
      BitVec got =
          GarbleEvalLocal(c, BitVec::FromU64(g, 2), BitVec::FromU64(e, 2), 7);
      EXPECT_TRUE(got == expected) << "g=" << g << " e=" << e;
    }
  }
}

TEST(GarbleTest, AdderMatchesPlaintextAcrossSeeds) {
  Circuit c = BuildAdderCircuit(8);
  Rng rng(5);
  for (int trial = 0; trial < 30; ++trial) {
    uint64_t a = rng.NextU64Below(256);
    uint64_t b = rng.NextU64Below(256);
    BitVec got = GarbleEvalLocal(c, BitVec::FromU64(a, 8),
                                 BitVec::FromU64(b, 8), trial);
    EXPECT_EQ(got.ToU64(0, 8), (a + b) & 255) << a << "+" << b;
  }
}

TEST(GarbleTest, ClassicSchemeMatchesPlaintext) {
  Circuit c = BuildAdderCircuit(8);
  Rng rng(6);
  for (int trial = 0; trial < 15; ++trial) {
    uint64_t a = rng.NextU64Below(256);
    uint64_t b = rng.NextU64Below(256);
    BitVec got = GarbleEvalLocal(c, BitVec::FromU64(a, 8),
                                 BitVec::FromU64(b, 8), trial, /*classic=*/true);
    EXPECT_EQ(got.ToU64(0, 8), (a + b) & 255);
  }
}

TEST(GarbleTest, ConstantWiresGarbleCorrectly) {
  CircuitBuilder b(1, 1);
  auto k = b.ConstantWord(0b1010, 4);
  auto x = b.EvaluatorWord(0, 1);
  b.AddOutputWord(k);
  b.AddOutput(b.And(b.GarblerInput(0), x[0]));
  Circuit c = b.Build();
  for (int g = 0; g < 2; ++g) {
    for (int e = 0; e < 2; ++e) {
      BitVec got = GarbleEvalLocal(c, BitVec::FromU64(g, 1),
                                   BitVec::FromU64(e, 1), 11);
      EXPECT_EQ(got.ToU64(0, 4), 0b1010u);
      EXPECT_EQ(got.Get(4), g && e);
    }
  }
}

TEST(GarbleTest, TableSizesMatchAndCount) {
  Circuit c = BuildAdderCircuit(16);
  Prg prg(Block(1, 2));
  GarbledCircuit half = Garble(c, prg);
  Prg prg2(Block(1, 2));
  ClassicGarbledCircuit classic = GarbleClassic(c, prg2);
  size_t and_gates = c.Stats().and_gates;
  EXPECT_EQ(half.and_tables.size(), and_gates);
  EXPECT_EQ(classic.and_tables.size(), and_gates);
}

TEST(GarbleTest, DeltaLsbIsOne) {
  Circuit c = BuildAdderCircuit(4);
  Prg prg(Block(9, 9));
  GarbledCircuit gc = Garble(c, prg);
  EXPECT_TRUE(gc.delta.GetLsb());
  // Point-and-permute depends on label pairs having opposite lsbs.
  for (const auto& pair : gc.input_labels) {
    EXPECT_NE(pair[0].GetLsb(), pair[1].GetLsb());
  }
}

// A circuit with wide AND levels (one level of `width` independent ANDs
// feeding a XOR tree), so the pool path in the garbling kernels actually
// fans out.
Circuit BuildWideAndCircuit(uint32_t width) {
  CircuitBuilder b(width, width);
  std::vector<CircuitBuilder::Wire> ands;
  for (uint32_t i = 0; i < width; ++i) {
    ands.push_back(b.And(b.GarblerInput(i), b.EvaluatorInput(i)));
  }
  CircuitBuilder::Wire acc = ands[0];
  for (uint32_t i = 1; i < width; ++i) acc = b.Xor(acc, ands[i]);
  b.AddOutput(acc);
  return b.Build();
}

bool SameGarbledCircuit(const GarbledCircuit& a, const GarbledCircuit& b) {
  if (a.delta != b.delta || a.input_labels != b.input_labels ||
      !(a.output_decode == b.output_decode) ||
      a.and_tables.size() != b.and_tables.size()) {
    return false;
  }
  for (size_t i = 0; i < a.and_tables.size(); ++i) {
    if (a.and_tables[i].tg != b.and_tables[i].tg ||
        a.and_tables[i].te != b.and_tables[i].te) {
      return false;
    }
  }
  return true;
}

// The accelerated kernels must not change the wire format: garbling the
// same circuit from the same seed yields byte-identical material on the
// AES-NI and portable arms.
TEST(GarbleTest, IdenticalGarbledTablesOnBothArms) {
  if (!CpuHasAesNi()) GTEST_SKIP() << "no AES-NI on this machine";
  bool saved = ForcePortable();
  Circuit c = BuildAdderCircuit(16);

  SetForcePortable(true);
  Prg prg_p(Block(33, 44));
  GarbledCircuit portable = Garble(c, prg_p);

  SetForcePortable(false);
  Prg prg_h(Block(33, 44));
  GarbledCircuit hardware = Garble(c, prg_h);
  SetForcePortable(saved);

  EXPECT_TRUE(SameGarbledCircuit(portable, hardware));
}

// Same property for the thread pool: a pooled run must be bit-identical
// to the serial one (the level schedule makes the order canonical).
TEST(GarbleTest, ParallelGarbleMatchesSequential) {
  ThreadPool pool(3);
  for (uint32_t width : {uint32_t{8}, uint32_t{600}}) {
    Circuit c = BuildWideAndCircuit(width);
    Prg prg_serial(Block(1, 2));
    GarbledCircuit serial = Garble(c, prg_serial);
    Prg prg_pooled(Block(1, 2));
    GarbledCircuit pooled = Garble(c, prg_pooled, &pool);
    EXPECT_TRUE(SameGarbledCircuit(serial, pooled)) << "width " << width;

    std::vector<Block> active;
    for (uint32_t i = 0; i < 2 * width; ++i) {
      active.push_back(serial.input_labels[i][i % 2]);
    }
    std::vector<Block> eval_serial =
        EvaluateGarbled(c, serial.and_tables, active);
    std::vector<Block> eval_pooled =
        EvaluateGarbled(c, serial.and_tables, active, &pool);
    EXPECT_EQ(eval_serial, eval_pooled) << "width " << width;
  }
}

TEST(GarbleTest, ParallelClassicMatchesSequential) {
  ThreadPool pool(3);
  Circuit c = BuildWideAndCircuit(600);
  Prg prg_serial(Block(5, 6));
  ClassicGarbledCircuit serial = GarbleClassic(c, prg_serial);
  Prg prg_pooled(Block(5, 6));
  ClassicGarbledCircuit pooled = GarbleClassic(c, prg_pooled, &pool);
  EXPECT_TRUE(serial.delta == pooled.delta &&
              serial.input_labels == pooled.input_labels &&
              serial.and_tables == pooled.and_tables &&
              serial.output_decode == pooled.output_decode);

  std::vector<Block> active;
  for (uint32_t i = 0; i < 2 * 600; ++i) {
    active.push_back(serial.input_labels[i][i % 2]);
  }
  EXPECT_EQ(EvaluateClassic(c, serial.and_tables, active),
            EvaluateClassic(c, serial.and_tables, active, &pool));
}

// Opens an OT session over `pair`: both parties' base OTs, concurrently.
// Every protocol run takes its OT endpoints already set up.
void SetUpOt(MemChannelPair& pair, OtExtSender& sender, Rng& sender_rng,
             OtExtReceiver& receiver, Rng& receiver_rng) {
  std::thread peer([&] { sender.Setup(pair.endpoint(0), sender_rng); });
  receiver.Setup(pair.endpoint(1), receiver_rng);
  peer.join();
}

// End-to-end protocol over channels + OT.
class GcProtocolTest : public ::testing::Test {
 protected:
  GcProtocolTest() {
    SetUpOt(pair_, ot_sender_, garbler_rng_, ot_receiver_, evaluator_rng_);
  }

  // Runs `circuit` as a 1-item batch; returns the evaluator's outputs
  // (only the evaluator decodes).
  BitVec RunProtocol(const Circuit& circuit, const BitVec& garbler_bits,
                     const BitVec& evaluator_bits) {
    std::thread garbler([&] {
      GcRunGarblerBatch(pair_.endpoint(0), {{&circuit, &garbler_bits}},
                        ot_sender_, garbler_rng_);
    });
    BitVec out = GcRunEvaluatorBatch(pair_.endpoint(1),
                                     {{&circuit, &evaluator_bits}},
                                     ot_receiver_)[0];
    garbler.join();
    return out;
  }

  MemChannelPair pair_;
  OtExtSender ot_sender_;
  OtExtReceiver ot_receiver_;
  Rng garbler_rng_{101}, evaluator_rng_{202};
};

TEST_F(GcProtocolTest, AdderEndToEnd) {
  Circuit c = BuildAdderCircuit(8);
  BitVec out = RunProtocol(c, BitVec::FromU64(77, 8), BitVec::FromU64(123, 8));
  EXPECT_EQ(out.ToU64(0, 8), (77 + 123) & 255);
}

TEST_F(GcProtocolTest, ComparisonEndToEnd) {
  CircuitBuilder b(8, 8);
  b.AddOutput(b.LessThanUnsigned(b.GarblerWord(0, 8), b.EvaluatorWord(0, 8)));
  Circuit c = b.Build();
  EXPECT_EQ(RunProtocol(c, BitVec::FromU64(5, 8), BitVec::FromU64(9, 8)).Get(0),
            true);
  EXPECT_EQ(
      RunProtocol(c, BitVec::FromU64(200, 8), BitVec::FromU64(9, 8)).Get(0),
      false);
}

TEST_F(GcProtocolTest, SessionReuseAcrossCircuits) {
  // OT session persists across protocol runs (amortized base OTs).
  Circuit adder = BuildAdderCircuit(6);
  for (uint64_t trial = 0; trial < 3; ++trial) {
    BitVec out = RunProtocol(adder, BitVec::FromU64(trial * 3, 6),
                             BitVec::FromU64(trial * 5, 6));
    EXPECT_EQ(out.ToU64(0, 6), (trial * 3 + trial * 5) & 63);
  }
}

TEST_F(GcProtocolTest, GarblerOnlyInputs) {
  CircuitBuilder b(4, 0);
  b.AddOutputWord(b.NotW(b.GarblerWord(0, 4)));
  Circuit c = b.Build();
  BitVec out = RunProtocol(c, BitVec::FromU64(0b0110, 4), BitVec(0));
  EXPECT_EQ(out.ToU64(0, 4), 0b1001u);
}

// Records every byte one party sends — the probe for wire bit-identity.
class TapChannel : public Channel {
 public:
  explicit TapChannel(Channel& inner) : inner_(inner) {}
  void Send(const uint8_t* data, size_t n) override {
    sent_.insert(sent_.end(), data, data + n);
    inner_.Send(data, n);
  }
  void Recv(uint8_t* data, size_t n) override { inner_.Recv(data, n); }
  const ChannelStats& stats() const override { return inner_.stats(); }
  const std::vector<uint8_t>& sent() const { return sent_; }

 private:
  Channel& inner_;
  std::vector<uint8_t> sent_;
};

TEST_F(GcProtocolTest, BatchMatchesPerItemPlaintext) {
  // One wire batch, heterogeneous items — different widths, one item with
  // no evaluator inputs at all (exercises the bit-concatenation offsets).
  Circuit adder4 = BuildAdderCircuit(4);
  Circuit adder8 = BuildAdderCircuit(8);
  CircuitBuilder nb(4, 0);
  nb.AddOutputWord(nb.NotW(nb.GarblerWord(0, 4)));
  Circuit notc = nb.Build();

  std::vector<BitVec> garbler_bits = {
      BitVec::FromU64(3, 4), BitVec::FromU64(200, 8), BitVec::FromU64(0b0110, 4),
      BitVec::FromU64(9, 4)};
  std::vector<BitVec> evaluator_bits = {
      BitVec::FromU64(11, 4), BitVec::FromU64(55, 8), BitVec(0),
      BitVec::FromU64(6, 4)};
  std::vector<const Circuit*> circuits = {&adder4, &adder8, &notc, &adder4};

  std::vector<GcGarbleItem> gitems(circuits.size());
  std::vector<GcEvalItem> eitems(circuits.size());
  for (size_t i = 0; i < circuits.size(); ++i) {
    gitems[i] = {circuits[i], &garbler_bits[i], nullptr};
    eitems[i] = {circuits[i], &evaluator_bits[i]};
  }

  std::thread garbler([&] {
    GcRunGarblerBatch(pair_.endpoint(0), gitems, ot_sender_, garbler_rng_);
  });
  std::vector<BitVec> evaluator_out =
      GcRunEvaluatorBatch(pair_.endpoint(1), eitems, ot_receiver_);
  garbler.join();

  ASSERT_EQ(evaluator_out.size(), circuits.size());
  for (size_t i = 0; i < circuits.size(); ++i) {
    BitVec expected = circuits[i]->Evaluate(garbler_bits[i], evaluator_bits[i]);
    EXPECT_TRUE(evaluator_out[i] == expected) << "item " << i;
  }
}

TEST_F(GcProtocolTest, BatchThenSingleSharesTheOtSession) {
  // The combined-OT batch must leave the extension streams aligned for
  // whatever runs next on the session.
  Circuit adder = BuildAdderCircuit(6);
  BitVec g0 = BitVec::FromU64(12, 6), e0 = BitVec::FromU64(30, 6);
  std::vector<GcGarbleItem> gitems = {{&adder, &g0, nullptr}};
  std::vector<GcEvalItem> eitems = {{&adder, &e0}};
  std::thread garbler([&] {
    GcRunGarblerBatch(pair_.endpoint(0), gitems, ot_sender_, garbler_rng_);
  });
  GcRunEvaluatorBatch(pair_.endpoint(1), eitems, ot_receiver_);
  garbler.join();
  BitVec out = RunProtocol(adder, BitVec::FromU64(7, 6), BitVec::FromU64(8, 6));
  EXPECT_EQ(out.ToU64(0, 6), 15u);
}

TEST(GcBatchTest, PregarbledWireIsBitIdenticalToFresh) {
  // The offline/online contract: a pre-garbled circuit whose seed came
  // from the same rng position produces the *exact same bytes on the wire*
  // as the fresh-garbling run — pooling must be invisible to the peer.
  Circuit c = BuildAdderCircuit(16);
  BitVec gbits = BitVec::FromU64(40000, 16);
  BitVec ebits = BitVec::FromU64(25000, 16);

  auto run = [&](bool pregarble) {
    MemChannelPair pair;
    TapChannel tap(pair.endpoint(0));
    OtExtSender s;
    OtExtReceiver r;
    Rng rng_g(909), rng_e(808);
    SetUpOt(pair, s, rng_g, r, rng_e);
    GarbledCircuit pre;
    std::vector<GcGarbleItem> gitems = {{&c, &gbits, nullptr}};
    if (pregarble) {
      // Draw the seed exactly where the fresh path would: from a copy of
      // the garbler's stream at the point its garbling starts.
      Rng seed_rng = rng_g;
      Prg prg(Block(seed_rng.NextU64(), seed_rng.NextU64()));
      pre = Garble(c, prg);
      gitems[0].pregarbled = &pre;
    }
    std::thread garbler([&] {
      GcRunGarblerBatch(tap, gitems, s, rng_g);
    });
    std::vector<GcEvalItem> eitems = {{&c, &ebits}};
    std::vector<BitVec> eval_out =
        GcRunEvaluatorBatch(pair.endpoint(1), eitems, r);
    garbler.join();
    EXPECT_EQ(eval_out[0].ToU64(0, 16), (40000 + 25000) & 0xFFFF);
    return tap.sent();
  };

  std::vector<uint8_t> fresh_bytes = run(false);
  std::vector<uint8_t> pooled_bytes = run(true);
  EXPECT_EQ(fresh_bytes, pooled_bytes);
}

TEST(GcBatchTest, PooledOtBatchMatchesPlaintext) {
  // A batch whose label OT runs fully derandomized from warm pools.
  Circuit c = BuildAdderCircuit(8);
  MemChannelPair pair;
  OtExtSender s;
  OtExtReceiver r;
  Rng rng_g(31), rng_e(32), choice_rng(33);
  SetUpOt(pair, s, rng_g, r, rng_e);
  OtSenderPadPool spool(64);
  OtReceiverPadPool rpool(64);
  std::thread fill([&] { spool.Append(s.SendRandom(pair.endpoint(0), 64)); });
  rpool.Append(r.RecvRandom(pair.endpoint(1), choice_rng, 64));
  fill.join();

  BitVec g0 = BitVec::FromU64(99, 8), g1 = BitVec::FromU64(4, 8);
  BitVec e0 = BitVec::FromU64(101, 8), e1 = BitVec::FromU64(250, 8);
  std::vector<GcGarbleItem> gitems = {{&c, &g0, nullptr}, {&c, &g1, nullptr}};
  std::vector<GcEvalItem> eitems = {{&c, &e0}, {&c, &e1}};
  std::vector<BitVec> out;
  std::thread garbler([&] {
    GcRunGarblerBatch(pair.endpoint(0), gitems, s, rng_g, nullptr, &spool);
  });
  out = GcRunEvaluatorBatch(pair.endpoint(1), eitems, r, nullptr, &rpool);
  garbler.join();
  EXPECT_EQ(out[0].ToU64(0, 8), (99 + 101) & 255);
  EXPECT_EQ(out[1].ToU64(0, 8), (4 + 250) & 255);
  // The two items' 16 evaluator bits ran as ONE pooled OT.
  EXPECT_EQ(rpool.stats().hits, 16u);
  EXPECT_EQ(spool.stats().hits, 16u);
}

}  // namespace
}  // namespace pafs
