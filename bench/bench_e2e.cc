// End-to-end offline/online split behind scripts/bench_e2e.sh: measures
// what a warm session actually pays per query once everything
// input-independent — Paillier keygen, the 128 base OTs, and the r^n
// pad pool — has been hoisted into an offline phase. Two protocols:
//
//   forest  garbled-circuit only, through the serving protocol drivers
//           (serve/engine.h), unpooled. Offline = base-OT Setup; online =
//           one warm forest query. cold_query_ms re-times the pre-split
//           shape (fresh OT session per query, base OTs inside the timed
//           region) for comparison against the historical
//           forest_query_ms baseline in BENCH_kernels.json.
//   linear  Paillier + GC hybrid. Offline = keygen + base OTs + pad
//           prefill for both parties; online runs pooled (every r^n
//           modexp served from the pool) and unpooled (every modexp
//           inline) back to back on the same warm session, with the pool
//           hit/miss counters proving the pooled path never fell back.
//
// Emits one flat JSON object on stdout; the wrapper asserts the gates
// (warm forest >= 3x the pre-split baseline, zero pool misses) and merges
// the annotated result into BENCH_e2e.json.
//
//   bench_e2e [--reps=5] [--smoke]
//
// --smoke shrinks to 2 reps and exits nonzero on any answer mismatch or
// pool miss, so tier-1 ctest covers the whole split in a few seconds.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "crypto/paillier.h"
#include "crypto/paillier_pool.h"
#include "gc/protocol.h"
#include "ml/linear_model.h"
#include "ml/random_forest.h"
#include "net/channel.h"
#include "ot/iknp.h"
#include "ot/ot_pool.h"
#include "serve/precompute.h"
#include "smc/secure_forest.h"
#include "smc/secure_linear.h"
#include "util/parallel.h"
#include "util/timer.h"

namespace pafs {
namespace {

struct E2eOptions {
  int reps = 5;
  bool smoke = false;
};

struct ForestSplit {
  double offline_base_ot_ms = 0;
  double cold_query_ms = 0;    // Fresh OT session inside the timed region.
  double online_query_ms = 0;  // Warm session: best rep.
  double online_mean_ms = 0;
  uint64_t mismatches = 0;
};

ForestSplit RunForest(const E2eOptions& opt) {
  // Same shape as bench_kernels ForestQueryMs (9 trees, depth 6, warfarin
  // cohort) so cold_query_ms lines up with the historical baseline.
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

  ForestSplit r;

  // Pre-split shape: every query pays the base OTs. Best of two to damp
  // scheduler noise without doubling smoke time.
  int cold_reps = opt.smoke ? 1 : 2;
  for (int i = 0; i < cold_reps; ++i) {
    MemChannelPair channel;
    OtExtSender s;
    OtExtReceiver recv;
    Rng rng_g(1);
    const std::vector<int>& row = train.row(7);
    Timer timer;
    bench::BaseOtSetupMs(s, recv, channel);
    serve::EvaluatorResult result = bench::RunDrivers(
        channel, garbler, serve::GarblerSession{s, rng_g, specs}, evaluator,
        serve::EvaluatorSession{recv}, row);
    double ms = timer.ElapsedMillis();
    if (i == 0 || ms < r.cold_query_ms) r.cold_query_ms = ms;
    if (result.classes[0] != model.forest.Predict(row)) ++r.mismatches;
  }

  // Offline once, then only transfer+garble+evaluate per query.
  MemChannelPair channel;
  OtExtSender sender;
  OtExtReceiver receiver;
  r.offline_base_ot_ms = bench::BaseOtSetupMs(sender, receiver, channel);
  Rng rng_g(1);
  double sum = 0;
  for (int i = 0; i < opt.reps; ++i) {
    const std::vector<int>& row = train.row((7 + i * 211) % train.size());
    Timer timer;
    serve::EvaluatorResult result = bench::RunDrivers(
        channel, garbler, serve::GarblerSession{sender, rng_g, specs},
        evaluator, serve::EvaluatorSession{receiver}, row);
    double ms = timer.ElapsedMillis();
    sum += ms;
    if (i == 0 || ms < r.online_query_ms) r.online_query_ms = ms;
    if (result.classes[0] != model.forest.Predict(row)) ++r.mismatches;
  }
  r.online_mean_ms = sum / opt.reps;
  return r;
}

struct BatchSplit {
  int records = 0;
  double offline_pregarble_ms = 0;   // GC pool prefill: `records` circuits.
  double offline_push_ms = 0;        // Shipping tables+labels+decode ahead.
  double offline_ot_prefill_ms = 0;  // Random-OT pool prefill, both ends.
  double batched_ms = 0;             // Best rep: one whole batch exchange.
  double batched_mean_ms = 0;
  double batched_per_record_ms = 0;  // Best rep / records.
  uint64_t gc_pool_hits = 0;
  uint64_t gc_pool_misses = 0;
  uint64_t ot_pool_hits = 0;
  uint64_t ot_pool_misses = 0;
  uint64_t mismatches = 0;
};

// Cross-query batching over the forest circuit: every input-independent
// cost — base OTs, the garbling itself (GcPool), and the random-OT pads —
// is hoisted offline, then `records` classifications share one protocol
// exchange (one OT-extension matrix, one circuit prelude's worth of
// context). The online remainder is label selection + evaluation, so the
// per-record cost must amortize well below a warm single query.
BatchSplit RunBatched(const E2eOptions& opt, int records) {
  Rng rng(21);
  Dataset train = GenerateWarfarinCohort(2000, rng);
  RandomForest forest;
  ForestParams params;
  params.num_trees = 9;
  params.tree.max_depth = 6;
  forest.Train(train, params, rng);
  SecureForestCircuit spec(forest, train.features(), train.num_classes(), {});

  BatchSplit r;
  r.records = records;

  MemChannelPair channel;
  OtExtSender sender;
  OtExtReceiver receiver;
  bench::BaseOtSetupMs(sender, receiver, channel);  // Reported by forest.

  BitVec garbler_bits = spec.EncodeModel(forest);
  size_t eval_bits_per_record = spec.EncodeRow(train.row(0)).size();
  serve::GcPool gc_pool(static_cast<size_t>(records), /*max_keys=*/1);
  gc_pool.RegisterKey({}, std::shared_ptr<const Circuit>(
                              std::shared_ptr<const Circuit>(),
                              &spec.circuit()));
  OtSenderPadPool spool(static_cast<size_t>(records) * eval_bits_per_record);
  OtReceiverPadPool rpool(static_cast<size_t>(records) * eval_bits_per_record);

  Rng fill_rng(71), rng_g(1), rng_e(2);
  double sum = 0;
  for (int rep = 0; rep < opt.reps; ++rep) {
    // Offline for this rep: pre-garble the batch's circuits and stock both
    // OT pad pools with exactly the batch's label transfers.
    Timer garble_timer;
    while (gc_pool.RefillOne(fill_rng)) {
    }
    if (rep == 0) r.offline_pregarble_ms = garble_timer.ElapsedMillis();
    size_t need = static_cast<size_t>(records) * eval_bits_per_record;
    Timer ot_timer;
    std::thread ot_srv(
        [&] { spool.Append(sender.SendRandom(channel.endpoint(0), need)); });
    rpool.Append(receiver.RecvRandom(channel.endpoint(1), rng_e, need));
    ot_srv.join();
    if (rep == 0) r.offline_ot_prefill_ms = ot_timer.ElapsedMillis();

    // Still offline: ship the pooled circuits' tables, active garbler
    // labels, and decode bits ahead of the queries — the rows are not
    // known yet, and none of this material depends on them.
    Timer push_timer;
    std::vector<GcGarbleItem> gitems(records);
    std::vector<GarbledCircuit> pre(records);
    GcGarblerPushed pushed;
    std::thread push_srv([&] {
      for (int i = 0; i < records; ++i) {
        gitems[i].circuit = &spec.circuit();
        gitems[i].garbler_bits = &garbler_bits;
        if (gc_pool.TryTake({}, &pre[i])) gitems[i].pregarbled = &pre[i];
      }
      pushed = GcGarblerPushBatch(channel.endpoint(0), gitems, rng_g,
                                  GarblingScheme::kHalfGates,
                                  ThreadPool::Global());
    });
    std::vector<const Circuit*> circuits(records, &spec.circuit());
    GcEvaluatorPulled pulled =
        GcEvaluatorPullBatch(channel.endpoint(1), circuits);
    push_srv.join();
    if (rep == 0) r.offline_push_ms = push_timer.ElapsedMillis();

    // Online: the rows arrive, and the remaining exchange is the combined
    // derandomized label OT, evaluation, and the output report.
    std::vector<const std::vector<int>*> rows(records);
    for (int i = 0; i < records; ++i) {
      rows[i] = &train.row((7 + (rep * records + i) * 211) % train.size());
    }
    Timer timer;
    std::thread server([&] {
      GcGarblerOnlineBatch(channel.endpoint(0), std::move(pushed), sender,
                           &spool);
    });
    std::vector<BitVec> evaluator_bits(records);
    std::vector<GcEvalItem> items(records);
    for (int i = 0; i < records; ++i) {
      evaluator_bits[i] = spec.EncodeRow(*rows[i]);
      items[i].circuit = &spec.circuit();
      items[i].evaluator_bits = &evaluator_bits[i];
    }
    std::vector<BitVec> outputs = GcEvaluatorOnlineBatch(
        channel.endpoint(1), std::move(pulled), items, receiver,
        ThreadPool::Global(), &rpool);
    server.join();
    double ms = timer.ElapsedMillis();
    sum += ms;
    if (rep == 0 || ms < r.batched_ms) r.batched_ms = ms;
    for (int i = 0; i < records; ++i) {
      if (spec.DecodeOutput(outputs[i]) != forest.Predict(*rows[i])) {
        ++r.mismatches;
      }
    }
  }
  r.batched_mean_ms = sum / opt.reps;
  r.batched_per_record_ms = r.batched_ms / records;
  serve::GcPool::Stats gc_stats = gc_pool.stats();
  r.gc_pool_hits = gc_stats.hits;
  r.gc_pool_misses = gc_stats.misses;
  r.ot_pool_hits = spool.stats().hits + rpool.stats().hits;
  r.ot_pool_misses = spool.stats().misses + rpool.stats().misses;
  return r;
}

struct DecryptSplit {
  double crt_decrypt_ms = 0;        // Mean per op, CRT two-half path.
  double fullwidth_decrypt_ms = 0;  // Mean per op, n^2-width reference.
  double crt_speedup = 0;
  uint64_t mismatches = 0;  // CRT plaintext != full-width plaintext.
};

// CRT vs full-width Paillier decryption on serving-layer-sized keys: same
// ciphertexts through both paths, differential-checked, timed separately.
DecryptSplit RunDecrypt(const E2eOptions& opt) {
  Rng rng(0xD3C);
  PaillierKeyPair keys = GeneratePaillierKey(rng, 512);
  int ops = opt.smoke ? 16 : 64;
  std::vector<BigInt> ciphertexts;
  std::vector<BigInt> plaintexts;
  ciphertexts.reserve(ops);
  plaintexts.reserve(ops);
  for (int i = 0; i < ops; ++i) {
    BigInt m = BigInt::RandomBits(rng, 60);
    if (i % 2 == 1) m = BigInt(0) - m;
    plaintexts.push_back(m);
    ciphertexts.push_back(keys.public_key.Encrypt(m, rng));
  }

  DecryptSplit r;
  Timer crt_timer;
  std::vector<BigInt> crt(ops);
  for (int i = 0; i < ops; ++i) {
    crt[i] = keys.private_key.Decrypt(ciphertexts[i]);
  }
  r.crt_decrypt_ms = crt_timer.ElapsedMillis() / ops;
  Timer full_timer;
  std::vector<BigInt> full(ops);
  for (int i = 0; i < ops; ++i) {
    full[i] = keys.private_key.DecryptFullWidth(ciphertexts[i]);
  }
  r.fullwidth_decrypt_ms = full_timer.ElapsedMillis() / ops;
  for (int i = 0; i < ops; ++i) {
    if (!(crt[i] == full[i]) || !(crt[i] == plaintexts[i])) ++r.mismatches;
  }
  r.crt_speedup =
      r.crt_decrypt_ms > 0 ? r.fullwidth_decrypt_ms / r.crt_decrypt_ms : 0;
  return r;
}

struct LinearSplit {
  double offline_keygen_ms = 0;
  double offline_base_ot_ms = 0;
  double offline_pad_prefill_ms = 0;
  double offline_total_ms = 0;
  double online_pooled_ms = 0;  // Warm session + full pools: best rep.
  double online_pooled_mean_ms = 0;
  double online_unpooled_ms = 0;  // Warm session, every modexp inline.
  double online_unpooled_mean_ms = 0;
  uint64_t pool_hits = 0;
  uint64_t pool_misses = 0;
  uint64_t pads_precomputed = 0;
  uint64_t mismatches = 0;  // Pooled class != unpooled class on same row.
};

LinearSplit RunLinear(const E2eOptions& opt) {
  Rng rng(33);
  Dataset train = GenerateWarfarinCohort(1200, rng);
  LinearModel model;
  model.Train(train, LinearTrainParams());
  SecureLinearProtocol protocol(train.features(), train.num_classes(), {});

  LinearSplit r;

  // Offline phase, piece by piece. 512-bit keys match the size the cost
  // model prices (PipelineConfig::paillier_bits).
  Rng key_rng(0x0FF1);
  Timer keygen_timer;
  PaillierKeyPair keys = GeneratePaillierKey(key_rng, 512);
  r.offline_keygen_ms = keygen_timer.ElapsedMillis();

  MemChannelPair channel;
  OtExtSender sender;
  OtExtReceiver receiver;
  r.offline_base_ot_ms = bench::BaseOtSetupMs(sender, receiver, channel);

  // Pools sized for every rep up front, so the online loop never refills:
  // the client spends NumClientCiphertexts pads per query, the server one
  // encrypt pad + one rerandomize pad per class.
  size_t client_per_query = static_cast<size_t>(protocol.NumClientCiphertexts());
  size_t server_per_query = 2u * static_cast<size_t>(train.num_classes());
  size_t reps = static_cast<size_t>(opt.reps);
  PaillierPadPool client_pool(keys.public_key, client_per_query * reps);
  std::shared_ptr<PaillierPadPool> server_pool;
  Rng client_fill_rng(61), server_fill_rng(62);
  Timer prefill_timer;
  client_pool.Refill(client_fill_rng, client_per_query * reps);
  server_pool = std::make_shared<PaillierPadPool>(
      PaillierPublicKey(keys.public_key.n()), server_per_query * reps);
  server_pool->Refill(server_fill_rng, server_per_query * reps);
  r.offline_pad_prefill_ms = prefill_timer.ElapsedMillis();
  r.offline_total_ms =
      r.offline_keygen_ms + r.offline_base_ot_ms + r.offline_pad_prefill_ms;
  r.pads_precomputed = client_pool.stats().refilled +
                       server_pool->stats().refilled;
  PaillierPoolFn pool_for = [&](const BigInt& n) {
    return server_pool->MatchesModulus(n) ? server_pool : nullptr;
  };

  Rng server_rng(42), client_rng(43);
  std::vector<int> pooled_classes(reps), unpooled_classes(reps);

  // Unpooled first: same warm session, every r^n modexp inline. This is
  // the online cost before the offline/online split.
  double sum = 0;
  for (size_t i = 0; i < reps; ++i) {
    const std::vector<int>& row = train.row((333 + i * 97) % train.size());
    SmcRunStats client_stats;
    Timer timer;
    std::thread server([&] {
      protocol.RunServer(channel.endpoint(0), model, {}, sender, server_rng);
    });
    client_stats = protocol.RunClient(channel.endpoint(1), keys, row,
                                      receiver, client_rng);
    server.join();
    double ms = timer.ElapsedMillis();
    sum += ms;
    if (i == 0 || ms < r.online_unpooled_ms) r.online_unpooled_ms = ms;
    unpooled_classes[i] = client_stats.predicted_class;
  }
  r.online_unpooled_mean_ms = sum / static_cast<double>(reps);

  // Pooled: identical rows, pads from the pools. Every take must hit.
  sum = 0;
  for (size_t i = 0; i < reps; ++i) {
    const std::vector<int>& row = train.row((333 + i * 97) % train.size());
    SmcRunStats client_stats;
    Timer timer;
    std::thread server([&] {
      protocol.RunServer(channel.endpoint(0), model, {}, sender, server_rng,
                         GarblingScheme::kHalfGates, pool_for);
    });
    client_stats =
        protocol.RunClient(channel.endpoint(1), keys, row, receiver,
                           client_rng, GarblingScheme::kHalfGates,
                           &client_pool);
    server.join();
    double ms = timer.ElapsedMillis();
    sum += ms;
    if (i == 0 || ms < r.online_pooled_ms) r.online_pooled_ms = ms;
    pooled_classes[i] = client_stats.predicted_class;
  }
  r.online_pooled_mean_ms = sum / static_cast<double>(reps);

  // Masks cancel exactly inside the argmax circuit, so pooled and
  // unpooled runs of the same row must agree bit for bit on the class.
  for (size_t i = 0; i < reps; ++i) {
    if (pooled_classes[i] != unpooled_classes[i]) ++r.mismatches;
  }
  r.pool_hits = client_pool.stats().hits + server_pool->stats().hits;
  r.pool_misses = client_pool.stats().misses + server_pool->stats().misses;
  return r;
}

void PrintForest(const ForestSplit& r, const BatchSplit& b) {
  std::printf("  \"forest\": {\n");
  std::printf("    \"offline_base_ot_ms\": %.3f,\n", r.offline_base_ot_ms);
  std::printf("    \"cold_query_ms\": %.3f,\n", r.cold_query_ms);
  std::printf("    \"online_query_ms\": %.3f,\n", r.online_query_ms);
  std::printf("    \"online_mean_ms\": %.3f,\n", r.online_mean_ms);
  std::printf("    \"mismatches\": %llu,\n",
              static_cast<unsigned long long>(r.mismatches));
  std::printf("    \"batched_records\": %d,\n", b.records);
  std::printf("    \"batched_offline_pregarble_ms\": %.3f,\n",
              b.offline_pregarble_ms);
  std::printf("    \"batched_offline_push_ms\": %.3f,\n", b.offline_push_ms);
  std::printf("    \"batched_offline_ot_prefill_ms\": %.3f,\n",
              b.offline_ot_prefill_ms);
  std::printf("    \"batched_ms\": %.3f,\n", b.batched_ms);
  std::printf("    \"batched_mean_ms\": %.3f,\n", b.batched_mean_ms);
  std::printf("    \"batched_per_record_ms\": %.3f,\n",
              b.batched_per_record_ms);
  std::printf("    \"gc_pool_hits\": %llu,\n",
              static_cast<unsigned long long>(b.gc_pool_hits));
  std::printf("    \"gc_pool_misses\": %llu,\n",
              static_cast<unsigned long long>(b.gc_pool_misses));
  std::printf("    \"ot_pool_hits\": %llu,\n",
              static_cast<unsigned long long>(b.ot_pool_hits));
  std::printf("    \"ot_pool_misses\": %llu,\n",
              static_cast<unsigned long long>(b.ot_pool_misses));
  std::printf("    \"batched_mismatches\": %llu\n",
              static_cast<unsigned long long>(b.mismatches));
  std::printf("  },\n");
}

void PrintDecrypt(const DecryptSplit& r) {
  std::printf("  \"paillier\": {\n");
  std::printf("    \"crt_decrypt_ms\": %.4f,\n", r.crt_decrypt_ms);
  std::printf("    \"fullwidth_decrypt_ms\": %.4f,\n",
              r.fullwidth_decrypt_ms);
  std::printf("    \"crt_speedup\": %.2f,\n", r.crt_speedup);
  std::printf("    \"crt_mismatches\": %llu\n",
              static_cast<unsigned long long>(r.mismatches));
  std::printf("  },\n");
}

void PrintLinear(const LinearSplit& r) {
  std::printf("  \"linear\": {\n");
  std::printf("    \"offline_keygen_ms\": %.3f,\n", r.offline_keygen_ms);
  std::printf("    \"offline_base_ot_ms\": %.3f,\n", r.offline_base_ot_ms);
  std::printf("    \"offline_pad_prefill_ms\": %.3f,\n",
              r.offline_pad_prefill_ms);
  std::printf("    \"offline_total_ms\": %.3f,\n", r.offline_total_ms);
  std::printf("    \"online_pooled_ms\": %.3f,\n", r.online_pooled_ms);
  std::printf("    \"online_pooled_mean_ms\": %.3f,\n",
              r.online_pooled_mean_ms);
  std::printf("    \"online_unpooled_ms\": %.3f,\n", r.online_unpooled_ms);
  std::printf("    \"online_unpooled_mean_ms\": %.3f,\n",
              r.online_unpooled_mean_ms);
  std::printf("    \"pool_hits\": %llu,\n",
              static_cast<unsigned long long>(r.pool_hits));
  std::printf("    \"pool_misses\": %llu,\n",
              static_cast<unsigned long long>(r.pool_misses));
  std::printf("    \"pads_precomputed\": %llu,\n",
              static_cast<unsigned long long>(r.pads_precomputed));
  std::printf("    \"mismatches\": %llu\n",
              static_cast<unsigned long long>(r.mismatches));
  std::printf("  }\n");
}

}  // namespace
}  // namespace pafs

int main(int argc, char** argv) {
  using namespace pafs;
  E2eOptions opt;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--reps=", 7) == 0) {
      opt.reps = std::atoi(argv[i] + 7);
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      opt.smoke = true;
    }
  }
  if (opt.smoke) opt.reps = 2;
  if (opt.reps < 1) opt.reps = 1;

  ForestSplit forest = RunForest(opt);
  // Sanitized smoke runs carry `records` pre-garbled forests in memory at
  // once; a smaller batch keeps the shadow-memory footprint test-sized
  // while the full bench measures the serving default of 32.
  BatchSplit batched = RunBatched(opt, opt.smoke ? 8 : 32);
  DecryptSplit decrypt = RunDecrypt(opt);
  LinearSplit linear = RunLinear(opt);

  std::printf("{\n");
  std::printf("  \"reps\": %d,\n", opt.reps);
  PrintForest(forest, batched);
  PrintDecrypt(decrypt);
  PrintLinear(linear);
  std::printf("}\n");

  if (opt.smoke) {
    if (forest.mismatches > 0 || batched.mismatches > 0 ||
        linear.mismatches > 0 || decrypt.mismatches > 0) {
      std::fprintf(stderr, "bench_e2e --smoke: answer mismatches\n");
      return 1;
    }
    if (linear.pool_misses > 0) {
      std::fprintf(stderr,
                   "bench_e2e --smoke: pooled run fell back to inline "
                   "modexps (%llu misses)\n",
                   static_cast<unsigned long long>(linear.pool_misses));
      return 1;
    }
    if (batched.gc_pool_misses > 0 || batched.ot_pool_misses > 0) {
      std::fprintf(stderr,
                   "bench_e2e --smoke: batched run missed a warm pool "
                   "(gc %llu, ot %llu)\n",
                   static_cast<unsigned long long>(batched.gc_pool_misses),
                   static_cast<unsigned long long>(batched.ot_pool_misses));
      return 1;
    }
    if (forest.online_query_ms >= forest.cold_query_ms) {
      std::fprintf(stderr,
                   "bench_e2e --smoke: warm query (%.2f ms) not faster "
                   "than cold (%.2f ms)\n",
                   forest.online_query_ms, forest.cold_query_ms);
      return 1;
    }
    if (batched.batched_per_record_ms >= forest.online_query_ms) {
      std::fprintf(stderr,
                   "bench_e2e --smoke: batched per-record (%.2f ms) not "
                   "faster than a warm single query (%.2f ms)\n",
                   batched.batched_per_record_ms, forest.online_query_ms);
      return 1;
    }
  }
  return 0;
}
