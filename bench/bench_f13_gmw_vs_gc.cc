// F13 [reconstructed, extension]: Yao garbled circuits vs GMW secret
// sharing as the SMC backend for the same secure naive Bayes circuit, with
// and without disclosure. Reproduces the classic tradeoff the paper's
// "pure SMC solutions" framing sits on: GMW moves ~30x fewer bytes per AND
// gate but pays one round per AND-depth layer, so WAN latency flips the
// winner — and disclosure helps both backends.
#include <thread>

#include "bench_common.h"
#include "ml/naive_bayes.h"
#include "sharing/gmw.h"
#include "smc/secure_nb.h"
#include "util/timer.h"

using namespace pafs;
using namespace pafs::bench;

namespace {

struct BackendRun {
  double cpu_ms = 0;
  uint64_t bytes = 0;
  uint64_t rounds = 0;
};

BackendRun RunGc(const NaiveBayes& nb, const Dataset& cohort,
                 const std::map<int, int>& disclosed,
                 const std::vector<int>& row) {
  std::vector<int> plan;
  for (const auto& [f, v] : disclosed) plan.push_back(f);
  serve::ServingModel model =
      SchemaModel(cohort, ClassifierKind::kNaiveBayes, plan);
  model.nb = nb;
  serve::GarblerDriver garbler(model, model.setup.plan_features);
  serve::EvaluatorDriver evaluator(model.setup);
  serve::SpecMap specs;
  MemChannelPair channel;
  OtExtSender s;
  OtExtReceiver r;
  Rng rng_g(1);
  // Session setup out of band (amortized in both backends).
  BaseOtSetupMs(s, r, channel);
  channel.ResetStats();

  Timer timer;
  RunDrivers(channel, garbler, serve::GarblerSession{s, rng_g, specs},
             evaluator, serve::EvaluatorSession{r}, row);
  return BackendRun{timer.ElapsedMillis(), channel.TotalBytes(),
                    channel.TotalRounds()};
}

BackendRun RunGmw(const SecureNbCircuit& spec, const NaiveBayes& nb,
                  const std::map<int, int>& disclosed,
                  const std::vector<int>& row) {
  MemChannelPair channel;
  GmwParty p0(0, channel.endpoint(0));
  GmwParty p1(1, channel.endpoint(1));
  Rng rng0(3), rng1(4);
  std::thread setup([&] { p0.Setup(rng0); });
  p1.Setup(rng1);
  setup.join();
  // Triple precomputation counts as online cost here (it scales with the
  // circuit, unlike the base OTs).
  channel.ResetStats();

  Timer timer;
  BitVec model_bits = spec.EncodeModel(nb, disclosed);
  BitVec row_bits = spec.EncodeRow(row);
  BitVec out0, out1;
  std::thread server(
      [&] { out0 = p0.Evaluate(spec.circuit(), model_bits, rng0); });
  out1 = p1.Evaluate(spec.circuit(), row_bits, rng1);
  server.join();
  return BackendRun{timer.ElapsedMillis(), channel.TotalBytes(),
                    channel.TotalRounds()};
}

}  // namespace

int main(int argc, char** argv) {
  BenchArgs(argc, argv);
  Banner("F13", "SMC backend comparison: Yao GC vs GMW (secure naive Bayes)");
  Dataset cohort = WarfarinCohort(3000);
  NaiveBayes nb;
  nb.Train(cohort);
  const std::vector<int>& row = cohort.row(42);

  struct Scenario {
    const char* label;
    std::map<int, int> disclosed;
  };
  std::vector<Scenario> scenarios = {
      {"pure SMC", {}},
      {"4 disclosed",
       {{WarfarinSchema::kAge, row[WarfarinSchema::kAge]},
        {WarfarinSchema::kRace, row[WarfarinSchema::kRace]},
        {WarfarinSchema::kWeight, row[WarfarinSchema::kWeight]},
        {WarfarinSchema::kHeight, row[WarfarinSchema::kHeight]}}},
  };

  std::printf("%-14s %-8s %-10s %-10s %-8s %-12s %s\n", "scenario",
              "backend", "cpu(ms)", "KiB", "rounds", "LAN est(ms)",
              "WAN est(ms)");
  for (const Scenario& scenario : scenarios) {
    SecureNbCircuit spec(cohort.features(), cohort.num_classes(),
                         scenario.disclosed);
    BackendRun gc = RunGc(nb, cohort, scenario.disclosed, row);
    BackendRun gmw = RunGmw(spec, nb, scenario.disclosed, row);
    for (const auto& [name, run] :
         {std::pair<const char*, BackendRun>{"GC", gc}, {"GMW", gmw}}) {
      double lan =
          run.cpu_ms + LanProfile().TransferSeconds(run.bytes, run.rounds) * 1e3;
      double wan =
          run.cpu_ms + WanProfile().TransferSeconds(run.bytes, run.rounds) * 1e3;
      std::printf("%-14s %-8s %-10.2f %-10.1f %-8llu %-12.2f %.2f\n",
                  scenario.label, name, run.cpu_ms, run.bytes / 1024.0,
                  static_cast<unsigned long long>(run.rounds), lan, wan);
    }
  }
  std::printf("\nGMW wins on bytes; Yao wins on rounds (constant vs "
              "AND-depth), so the WAN column favors GC. Disclosure shrinks "
              "both.\n");
  PrintTelemetryBreakdown();
  return 0;
}
