// T10 [reconstructed]: end-to-end latency breakdown at a moderate budget.
// Separates the offline costs (training + plan selection, once per model;
// base-OT session setup, once per client) from the per-query online cost,
// and attributes the online traffic to LAN/WAN time.
#include <thread>

#include "bench_common.h"
#include "net/throttle.h"
#include "util/check.h"
#include "util/timer.h"

using namespace pafs;
using namespace pafs::bench;

int main(int argc, char** argv) {
  BenchArgs(argc, argv);
  Banner("T10", "latency breakdown (budget 0.05, warfarin)");
  Dataset cohort = WarfarinCohort(3000);

  std::printf("%-14s %-12s %-12s %-12s %-12s %-10s %-12s %s\n", "classifier",
              "train+sel(ms)", "1st query", "query(ms)", "query KiB",
              "rounds", "LAN est(ms)", "WAN est(ms)");
  for (ClassifierKind kind : AllClassifiers()) {
    Timer setup_timer;
    PipelineConfig config;
    config.classifier = kind;
    config.risk_budget = 0.05;
    SecureClassificationPipeline pipeline(cohort, config);
    double setup_ms = setup_timer.ElapsedMillis();

    Timer first_timer;
    pipeline.Classify(cohort.row(1));  // Includes base-OT session setup.
    double first_ms = first_timer.ElapsedMillis();

    const int kQueries = 10;
    double query_ms = 0;
    uint64_t bytes = 0, rounds = 0;
    for (int q = 0; q < kQueries; ++q) {
      SmcRunStats stats = pipeline.Classify(cohort.row(50 + 29 * q));
      query_ms += stats.wall_seconds * 1e3 / kQueries;
      bytes += stats.bytes;
      rounds += stats.rounds;
    }
    bytes /= kQueries;
    rounds /= kQueries;
    double lan_ms = LanProfile().TransferSeconds(bytes, rounds) * 1e3;
    double wan_ms = WanProfile().TransferSeconds(bytes, rounds) * 1e3;
    std::printf("%-14s %-12.1f %-12.1f %-12.2f %-12.1f %-10llu %-12.2f %.2f\n",
                ClassifierName(kind), setup_ms, first_ms, query_ms,
                bytes / 1024.0, static_cast<unsigned long long>(rounds),
                query_ms + lan_ms, query_ms + wan_ms);
  }
  // Validate the analytic WAN estimate against real (time-scaled) sleeps:
  // one secure NB query over throttled channels, WAN emulated at 20x speed.
  {
    Dataset small = WarfarinCohort(1500);
    serve::ServingModel model =
        SchemaModel(small, ClassifierKind::kNaiveBayes);
    model.nb.Train(small);
    serve::GarblerDriver garbler(model, model.setup.plan_features);
    serve::EvaluatorDriver evaluator(model.setup);
    serve::SpecMap specs;
    MemChannelPair pair;
    const double kScale = 20.0;
    ThrottledChannel server_ch(pair.endpoint(0), WanProfile(), kScale);
    ThrottledChannel client_ch(pair.endpoint(1), WanProfile(), kScale);
    OtExtSender s;
    OtExtReceiver r;
    Rng rng_g(1), rng_e(2);
    std::thread setup([&] { s.Setup(server_ch, rng_g); });
    r.Setup(client_ch, rng_e);
    setup.join();

    Timer timer;
    std::thread server([&] {
      garbler.Run(server_ch, {{}}, serve::GarblerSession{s, rng_g, specs});
    });
    serve::EvaluatorResult result = evaluator.Run(
        client_ch, {small.row(1)}, serve::EvaluatorSession{r});
    server.join();
    PAFS_CHECK_EQ(result.classes[0], model.nb.Predict(small.row(1)));
    double measured_ms = timer.ElapsedMillis();
    double emulated_ms = (server_ch.emulated_delay_seconds() +
                          client_ch.emulated_delay_seconds()) *
                         kScale * 1e3;
    double estimate_ms =
        WanProfile().TransferSeconds(pair.TotalBytes(), pair.TotalRounds()) *
        1e3;
    std::printf("\nWAN validation (secure NB, real sleeps at %.0fx speed):\n"
                "  emulated link time %.1f ms vs analytic estimate %.1f ms "
                "(wall incl. compute at scale: %.1f ms)\n",
                kScale, emulated_ms, estimate_ms, measured_ms);
  }

  std::printf("\n'train+sel' = model training + greedy plan selection "
              "(offline, once). '1st query' includes the 128 base OTs;\n"
              "subsequent queries ride the extension. LAN/WAN estimates add "
              "the traffic's network time to the compute time.\n");

  // Measured per-phase breakdown from the telemetry subsystem: runs steady-
  // state queries per classifier and attributes wall time to the paper's
  // cost phases. Self-times are summed over both parties; the root
  // classify spans (whose self-time is the time each side spends blocked
  // on the other) are excluded, so each unit of compute is counted once
  // and the phase sum tracks the end-to-end wall-clock.
  if (!PafsTelemetry::enabled()) {
    std::printf("\n(run with --breakdown or PAFS_TELEMETRY=1 for the "
                "measured per-phase table)\n");
    return 0;
  }
  std::printf("\nMeasured per-phase breakdown (ms per query, steady "
              "state):\n");
  std::printf("%-14s %-9s %-9s %-9s %-9s %-9s %-9s %-9s %-9s %s\n",
              "classifier", "garble", "eval", "ot.base", "ot.ext", "network",
              "other", "sum", "wall", "coverage");
  for (ClassifierKind kind : AllClassifiers()) {
    PipelineConfig config;
    config.classifier = kind;
    config.risk_budget = 0.05;
    SecureClassificationPipeline pipeline(cohort, config);
    pipeline.Classify(cohort.row(1));  // Warm-up: base OTs + spec caches.
    PafsTelemetry::Reset();

    const int kQueries = 10;
    Timer timer;
    for (int q = 0; q < kQueries; ++q) {
      pipeline.Classify(cohort.row(50 + 29 * q));
    }
    double wall_ms = timer.ElapsedMillis() / kQueries;

    double garble = 0, eval = 0, ot_base = 0, ot_ext = 0, network = 0,
           other = 0;
    obs::VisitPhases([&](const std::string& party, int depth,
                         const obs::PhaseNode& node) {
      (void)party;
      (void)depth;
      if (node.name == "classify") return;  // Root: blocked-on-peer time.
      double self_ms = node.SelfSeconds() * 1e3 / kQueries;
      if (node.name == "gc.garble") {
        garble += self_ms;
      } else if (node.name == "gc.eval") {
        eval += self_ms;
      } else if (node.name.rfind("ot.base", 0) == 0) {
        ot_base += self_ms;
      } else if (node.name.rfind("ot.ext", 0) == 0) {
        ot_ext += self_ms;
      } else if (node.name == "gc.transfer" || node.name == "disclose") {
        network += self_ms;
      } else {
        other += self_ms;  // smc.encode, smc.build, glue.
      }
    });
    double sum = garble + eval + ot_base + ot_ext + network + other;
    std::printf("%-14s %-9.3f %-9.3f %-9.3f %-9.3f %-9.3f %-9.3f %-9.3f "
                "%-9.3f %.0f%%\n",
                ClassifierName(kind), garble, eval, ot_base, ot_ext, network,
                other, sum, wall_ms, 100.0 * sum / wall_ms);
    PafsTelemetry::Reset();
  }
  std::printf("\n'network' = serialization onto the in-process channel "
              "(add the LAN/WAN estimates above for link time); 'other' =\n"
              "model encoding, per-query specialization, and protocol glue. "
              "coverage = phase sum / measured wall-clock.\n");
  PrintTelemetryBreakdown();
  return 0;
}
