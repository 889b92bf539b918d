// F3 [abstract-anchored]: the pure-SMC baseline — per-query cost of fully
// secure classification (nothing disclosed) for each classifier family:
// measured compute, AND gates, exact traffic, and LAN/WAN wall-clock
// estimates. This is the denominator of every speedup in the paper.
#include "bench_common.h"

using namespace pafs;
using namespace pafs::bench;

int main(int argc, char** argv) {
  BenchArgs(argc, argv);
  Banner("F3", "pure SMC classification cost (no disclosure)");
  Dataset cohort = WarfarinCohort(3000);

  std::printf("%-14s %-10s %-10s %-9s %-11s %-11s %s\n", "classifier",
              "cpu(ms)", "ANDgates", "KiB", "rounds", "LAN est(ms)",
              "WAN est(ms)");
  for (ClassifierKind kind : AllClassifiers()) {
    PipelineConfig config;
    config.classifier = kind;
    config.risk_budget = 0.0;
    SecureClassificationPipeline pipeline(cohort, config);

    // Every query runs with the empty disclosure set, bypassing the plan:
    // even budget 0 may disclose a zero-lift feature. Warm up (base-OT
    // setup amortizes across the session), then measure.
    pipeline.ClassifyWithDisclosure(cohort.row(0), {});
    const int kQueries = 5;
    double cpu_ms = 0;
    uint64_t bytes = 0, rounds = 0;
    size_t gates = 0;
    for (int q = 0; q < kQueries; ++q) {
      SmcRunStats stats =
          pipeline.ClassifyWithDisclosure(cohort.row(100 + q * 37), {});
      cpu_ms += stats.wall_seconds * 1e3;
      bytes += stats.bytes;
      rounds += stats.rounds;
      gates = stats.and_gates;
    }
    cpu_ms /= kQueries;
    bytes /= kQueries;
    rounds /= kQueries;
    double lan_ms =
        cpu_ms + LanProfile().TransferSeconds(bytes, rounds) * 1e3;
    double wan_ms =
        cpu_ms + WanProfile().TransferSeconds(bytes, rounds) * 1e3;
    std::printf("%-14s %-10.2f %-10zu %-9.1f %-11llu %-11.2f %.2f\n",
                ClassifierName(kind), cpu_ms, gates, bytes / 1024.0,
                static_cast<unsigned long long>(rounds), lan_ms, wan_ms);
  }
  std::printf("\nNote: rounds include the one-time OT-extension column "
              "exchange; per-query rounds drop after session setup.\n");
  PrintTelemetryBreakdown();
  return 0;
}
