// Kernel-layer throughput harness behind scripts/bench_kernels.sh. Times
// the four accelerated substrates — fixed-key AES, batched garbling/
// evaluation, IKNP OT extension, and an end-to-end secure forest query —
// on whichever dispatch arm is active (PAFS_FORCE_PORTABLE pins the
// portable one) and prints a flat JSON object. The wrapper script runs it
// once per arm and merges the two into BENCH_kernels.json.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "bignum/modmath.h"
#include "bignum/prime.h"
#include "circuit/builder.h"
#include "crypto/aes128.h"
#include "crypto/cpu_features.h"
#include "crypto/paillier.h"
#include "crypto/prg.h"
#include "data/warfarin_gen.h"
#include "gc/garble.h"
#include "ml/random_forest.h"
#include "net/channel.h"
#include "ot/iknp.h"
#include "ot/transpose.h"
#include "util/random.h"
#include "util/timer.h"

namespace pafs {
namespace {

Circuit BuildAdder(uint32_t width) {
  CircuitBuilder b(width, width);
  b.AddOutputWord(b.AddW(b.GarblerWord(0, width), b.EvaluatorWord(0, width)));
  return b.Build();
}

// Single-block AES latency: a serial dependency chain, like the per-gate
// hashing the pre-batching garbler did.
double AesSingleNsPerBlock() {
  Aes128 aes(Block(1, 2));
  Block x(3, 4);
  constexpr int kIters = 1000000;
  Timer t;
  for (int i = 0; i < kIters; ++i) {
    x = aes.Encrypt(x);
    benchmark::DoNotOptimize(x);
  }
  return t.ElapsedSeconds() * 1e9 / kIters;
}

// Batched AES throughput: independent blocks through EncryptBlocks, the
// shape every batched kernel (PRG fill, gate hashing) reduces to.
double AesBatchBlocksPerS() {
  Aes128 aes(Block(1, 2));
  std::vector<Block> buf(4096);
  for (size_t i = 0; i < buf.size(); ++i) buf[i] = Block(i, i ^ 7);
  constexpr int kReps = 400;
  Timer t;
  for (int r = 0; r < kReps; ++r) {
    aes.EncryptBlocks(buf.data(), buf.data(), buf.size());
  }
  return kReps * static_cast<double>(buf.size()) / t.ElapsedSeconds();
}

double HashBatchBlocksPerS() {
  std::vector<Block> buf(4096);
  for (size_t i = 0; i < buf.size(); ++i) buf[i] = Block(i, ~i);
  constexpr int kReps = 400;
  Timer t;
  for (int r = 0; r < kReps; ++r) HashBlocksBatch(buf.data(), buf.size());
  return kReps * static_cast<double>(buf.size()) / t.ElapsedSeconds();
}

// 128 x 4096 bit-matrix transposes per second, reported as OT-extension
// rows per second (each transpose feeds 4096 transfer rows).
double TransposeRowsPerS() {
  constexpr size_t kRows = 4096;
  std::vector<std::vector<uint8_t>> columns(kOtExtensionWidth);
  Prg prg(Block(5, 6));
  for (auto& col : columns) {
    col.resize(kRows / 8);
    prg.FillBytes(col.data(), col.size());
  }
  constexpr int kReps = 200;
  Timer t;
  for (int r = 0; r < kReps; ++r) {
    std::vector<Block> rows = TransposeColumns(columns, kRows);
    benchmark::DoNotOptimize(rows);
  }
  return kReps * static_cast<double>(kRows) / t.ElapsedSeconds();
}

double GarbleGatesPerS() {
  Circuit c = BuildAdder(512);
  size_t and_gates = c.Stats().and_gates;
  Prg prg(Block(1, 1));
  constexpr int kReps = 300;
  Timer t;
  for (int r = 0; r < kReps; ++r) {
    GarbledCircuit gc = Garble(c, prg);
    benchmark::DoNotOptimize(gc);
  }
  return kReps * static_cast<double>(and_gates) / t.ElapsedSeconds();
}

double EvalGatesPerS() {
  Circuit c = BuildAdder(512);
  size_t and_gates = c.Stats().and_gates;
  Prg prg(Block(1, 1));
  GarbledCircuit gc = Garble(c, prg);
  std::vector<Block> inputs;
  for (uint32_t i = 0; i < c.garbler_inputs() + c.evaluator_inputs(); ++i) {
    inputs.push_back(gc.input_labels[i][i % 2]);
  }
  constexpr int kReps = 300;
  Timer t;
  for (int r = 0; r < kReps; ++r) {
    std::vector<Block> out = EvaluateGarbled(c, gc.and_tables, inputs);
    benchmark::DoNotOptimize(out);
  }
  return kReps * static_cast<double>(and_gates) / t.ElapsedSeconds();
}

// End-to-end IKNP extended transfers per second over an in-memory channel
// (base OTs excluded — they amortize).
double OtExtRowsPerS() {
  constexpr size_t kRows = 4096;
  constexpr int kReps = 10;
  MemChannelPair channel;
  OtExtSender sender;
  OtExtReceiver receiver;
  std::vector<std::array<Block, 2>> messages(kRows);
  for (size_t j = 0; j < kRows; ++j) {
    messages[j] = {Block(j, 1), Block(j, 2)};
  }
  BitVec choices(kRows);
  for (size_t j = 0; j < kRows; ++j) choices.Set(j, (j * 7) & 1);

  bench::BaseOtSetupMs(sender, receiver, channel);

  Timer t;
  std::thread send([&] {
    for (int r = 0; r < kReps; ++r) {
      sender.Send(channel.endpoint(0), messages);
    }
  });
  for (int r = 0; r < kReps; ++r) {
    std::vector<Block> got = receiver.Recv(channel.endpoint(1), choices);
    benchmark::DoNotOptimize(got);
  }
  send.join();
  return kReps * static_cast<double>(kRows) / t.ElapsedSeconds();
}

// 256-bit-exponent modexps per second in the RFC3526 1024-bit group: the
// modexp kernel behind Paillier's r^n pads, at a fixed modulus so the row
// stays comparable with the baseline BENCH_kernels.json records. A serial
// dependency chain so each rep is a full Exp.
double ModExpPerS() {
  const BigInt p = Rfc3526Prime1024();
  MontgomeryCtx ctx(p);
  Rng rng(31);
  BigInt e = BigInt::RandomBits(rng, 256);
  BigInt acc = Mod(BigInt::RandomBits(rng, 1020), p);
  constexpr int kReps = 400;
  Timer t;
  for (int i = 0; i < kReps; ++i) {
    acc = ctx.Exp(acc, e);
    benchmark::DoNotOptimize(acc);
  }
  return kReps / t.ElapsedSeconds();
}

// Full OT-extension setups per second (the 128 base OTs on edwards25519,
// both parties on their own thread over an in-memory channel): the work a
// cold serving session does before its first query.
double BaseOtSetupsPerS() {
  constexpr int kReps = 20;
  double total_ms = 0;
  for (int i = 0; i < kReps; ++i) {
    MemChannelPair channel;
    OtExtSender sender;
    OtExtReceiver receiver;
    total_ms += bench::BaseOtSetupMs(sender, receiver, channel);
  }
  return kReps * 1e3 / total_ms;
}

// Online Paillier encryptions per second at the serving key size (256-bit
// n): each op pays the full r^n mod n^2 modexp.
double PaillierEncryptPerS() {
  Rng rng(32);
  PaillierKeyPair keys = GeneratePaillierKey(rng, 256);
  constexpr int kReps = 300;
  Timer t;
  BigInt ct;
  for (int i = 0; i < kReps; ++i) {
    ct = keys.public_key.Encrypt(BigInt(i & 1), rng);
    benchmark::DoNotOptimize(ct);
  }
  return kReps / t.ElapsedSeconds();
}

// One full secure forest classification (9 trees, depth 6) over an
// in-memory channel: circuit transfer + OT + garble + evaluate. Reports
// the best of three runs to damp scheduler noise.
double ForestQueryMs() {
  Rng rng(21);
  Dataset train = GenerateWarfarinCohort(2000, rng);
  ForestParams params;
  params.num_trees = 9;
  params.tree.max_depth = 6;
  serve::ServingModel model =
      bench::SchemaModel(train, ClassifierKind::kForest);
  model.forest.Train(train, params, rng);
  serve::GarblerDriver garbler(model, model.setup.plan_features);
  serve::EvaluatorDriver evaluator(model.setup);
  serve::SpecMap specs;
  const std::vector<int>& row = train.row(7);

  double best = 0;
  for (int r = 0; r < 3; ++r) {
    MemChannelPair channel;
    OtExtSender s;
    OtExtReceiver recv;
    Rng rng_g(1);
    Timer timer;
    bench::BaseOtSetupMs(s, recv, channel);
    bench::RunDrivers(channel, garbler, serve::GarblerSession{s, rng_g, specs},
                      evaluator, serve::EvaluatorSession{recv}, row);
    double ms = timer.ElapsedMillis();
    if (r == 0 || ms < best) best = ms;
  }
  return best;
}

}  // namespace
}  // namespace pafs

int main() {
  using namespace pafs;
  std::printf("{\n");
  std::printf("  \"arm\": \"%s\",\n",
              UseHardwareAes() ? "hardware" : "portable");
  std::printf("  \"cpu_has_aesni\": %s,\n", CpuHasAesNi() ? "true" : "false");
  std::printf("  \"aes_single_ns_per_block\": %.2f,\n", AesSingleNsPerBlock());
  std::printf("  \"aes_batch_blocks_per_s\": %.0f,\n", AesBatchBlocksPerS());
  std::printf("  \"hash_batch_blocks_per_s\": %.0f,\n", HashBatchBlocksPerS());
  std::printf("  \"transpose_rows_per_s\": %.0f,\n", TransposeRowsPerS());
  std::printf("  \"garble_gates_per_s\": %.0f,\n", GarbleGatesPerS());
  std::printf("  \"eval_gates_per_s\": %.0f,\n", EvalGatesPerS());
  std::printf("  \"ot_ext_rows_per_s\": %.0f,\n", OtExtRowsPerS());
  std::printf("  \"base_ot_setups_per_s\": %.1f,\n", BaseOtSetupsPerS());
  std::printf("  \"modexp_per_s\": %.1f,\n", ModExpPerS());
  std::printf("  \"paillier_encrypt_per_s\": %.1f,\n", PaillierEncryptPerS());
  std::printf("  \"forest_query_ms\": %.2f\n", ForestQueryMs());
  std::printf("}\n");
  return 0;
}
