// Shared helpers for the experiment harnesses (one binary per table or
// figure in DESIGN.md's experiment index).
#ifndef PAFS_BENCH_BENCH_COMMON_H_
#define PAFS_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/pipeline.h"
#include "core/selection.h"
#include "data/hypertension_gen.h"
#include "data/warfarin_gen.h"
#include "net/channel.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "ot/iknp.h"
#include "serve/engine.h"
#include "util/random.h"
#include "util/timer.h"

namespace pafs::bench {

// Every bench accepts --breakdown: turn telemetry on for the whole run and
// finish with the aggregated phase/counter/histogram report. PAFS_TELEMETRY=1
// in the environment does the same without the flag; --json switches the
// final report to JSON for embedding in harness output.
struct BenchFlags {
  bool breakdown = false;
  bool json = false;
};

inline BenchFlags& Flags() {
  static BenchFlags flags;
  return flags;
}

inline void BenchArgs(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--breakdown") == 0) {
      Flags().breakdown = true;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      Flags().json = true;
    }
  }
  if (Flags().breakdown || Flags().json) PafsTelemetry::Enable();
}

// Prints the telemetry report if collection was on (flag or env var).
inline void PrintTelemetryBreakdown() {
  if (!PafsTelemetry::enabled()) return;
  if (Flags().json) {
    std::printf("%s\n", obs::RenderJson().c_str());
    return;
  }
  std::printf("\n--- telemetry breakdown "
              "(--breakdown / PAFS_TELEMETRY=1) ---\n%s",
              obs::RenderText().c_str());
}

inline Dataset WarfarinCohort(size_t n = 5000, uint64_t seed = 2016) {
  Rng rng(seed);
  return GenerateWarfarinCohort(n, rng);
}

inline Dataset HypertensionCohort(size_t n = 4000, uint64_t seed = 2016) {
  Rng rng(seed);
  return GenerateHypertensionCohort(n, rng);
}

inline void Banner(const char* experiment, const char* title) {
  std::printf("==============================================================="
              "=\n%s: %s\n"
              "==============================================================="
              "=\n",
              experiment, title);
}

inline std::string FeatureNames(const Dataset& data,
                                const std::vector<int>& features) {
  if (features.empty()) return "(none)";
  std::string out;
  for (int f : features) {
    if (!out.empty()) out += ",";
    out += data.features()[f].name;
  }
  return out;
}

inline const std::vector<ClassifierKind>& AllClassifiers() {
  static const std::vector<ClassifierKind> kAll = {
      ClassifierKind::kDecisionTree, ClassifierKind::kNaiveBayes,
      ClassifierKind::kLinear};
  return kAll;
}

// A deployable model over `data`'s schema with `plan` disclosed; the
// caller fills in the trained model for `kind`.
inline serve::ServingModel SchemaModel(const Dataset& data, ClassifierKind kind,
                                       std::vector<int> plan = {}) {
  serve::ServingModel model;
  model.setup.features = data.features();
  model.setup.num_classes = data.num_classes();
  model.setup.classifier = kind;
  model.setup.plan_features = std::move(plan);
  return model;
}

// Opens an OT session over `channel` the way a serving session's
// handshake does: both parties' base OTs concurrently, sender on end 0.
// Returns the wall time in milliseconds.
inline double BaseOtSetupMs(OtExtSender& sender, OtExtReceiver& receiver,
                            MemChannelPair& channel) {
  Rng rng_s(101), rng_r(102);
  Timer timer;
  std::thread server([&] { sender.Setup(channel.endpoint(0), rng_s); });
  receiver.Setup(channel.endpoint(1), rng_r);
  server.join();
  return timer.ElapsedMillis();
}

// One secure classification of `row` through the serving protocol drivers
// with both parties in this process: the garbler on a second thread over
// channel end 0, the evaluator here over end 1. The sessions' OT endpoints
// must already be set up (BaseOtSetupMs); null pools keep it fully online.
inline serve::EvaluatorResult RunDrivers(
    MemChannelPair& channel, const serve::GarblerDriver& garbler,
    const serve::GarblerSession& garbler_session,
    const serve::EvaluatorDriver& evaluator,
    const serve::EvaluatorSession& evaluator_session,
    const std::vector<int>& row) {
  std::vector<int> key;
  for (int f : evaluator.setup().plan_features) key.push_back(row[f]);
  std::thread server(
      [&] { garbler.Run(channel.endpoint(0), {key}, garbler_session); });
  serve::EvaluatorResult result =
      evaluator.Run(channel.endpoint(1), {row}, evaluator_session);
  server.join();
  return result;
}

}  // namespace pafs::bench

#endif  // PAFS_BENCH_BENCH_COMMON_H_
