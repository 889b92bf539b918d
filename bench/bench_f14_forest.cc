// F14 [reconstructed, extension]: richer model families — secure random
// forests. Shows (a) forest accuracy vs single tree, (b) how secure-forest
// cost scales with ensemble size, and (c) that disclosure-driven
// specialization prunes every member tree, preserving the paper's speedup
// story for ensembles.
#include "bench_common.h"
#include "ml/metrics.h"
#include "ml/random_forest.h"
#include "smc/secure_forest.h"
#include "util/timer.h"

using namespace pafs;
using namespace pafs::bench;

int main(int argc, char** argv) {
  BenchArgs(argc, argv);
  Banner("F14", "secure random forests (extension)");
  Rng rng(21);
  Dataset train = GenerateWarfarinCohort(3000, rng);
  Dataset test = GenerateWarfarinCohort(1000, rng);

  // (a) accuracy vs ensemble size.
  std::printf("%-8s %-10s %-12s %-12s %-12s %-10s %s\n", "trees", "accuracy",
              "leaves", "pure ANDs", "pure KiB", "spec ANDs", "gate x");
  const std::vector<int>& sample_row = train.row(42);
  std::map<int, int> disclosed = {
      {WarfarinSchema::kAge, sample_row[WarfarinSchema::kAge]},
      {WarfarinSchema::kRace, sample_row[WarfarinSchema::kRace]},
      {WarfarinSchema::kWeight, sample_row[WarfarinSchema::kWeight]},
      {WarfarinSchema::kGender, sample_row[WarfarinSchema::kGender]}};

  for (int trees : {1, 5, 9, 15, 25}) {
    RandomForest forest;
    ForestParams params;
    params.num_trees = trees;
    params.tree.max_depth = 6;
    forest.Train(train, params, rng);

    std::vector<int> preds, truth;
    for (size_t i = 0; i < test.size(); ++i) {
      preds.push_back(forest.Predict(test.row(i)));
      truth.push_back(test.label(i));
    }
    double accuracy = Accuracy(preds, truth);

    SecureForestCircuit pure(forest, train.features(), train.num_classes(),
                             {});
    RandomForest specialized = forest.Specialize(disclosed);
    SecureForestCircuit pruned(specialized, train.features(),
                               train.num_classes(), disclosed);
    std::printf("%-8d %-10.3f %-12zu %-12zu %-12.1f %-10zu %.1f\n", trees,
                accuracy, pure.total_leaves(),
                pure.circuit().Stats().and_gates,
                pure.circuit().Stats().and_gates * 32 / 1024.0,
                pruned.circuit().Stats().and_gates,
                pure.circuit().Stats().and_gates /
                    std::max<double>(pruned.circuit().Stats().and_gates, 1));
  }

  // (b) one measured end-to-end secure forest classification.
  {
    ForestParams params;
    params.num_trees = 9;
    params.tree.max_depth = 6;
    serve::ServingModel model = SchemaModel(train, ClassifierKind::kForest);
    model.forest.Train(train, params, rng);
    serve::GarblerDriver garbler(model, model.setup.plan_features);
    serve::EvaluatorDriver evaluator(model.setup);
    serve::SpecMap specs;
    MemChannelPair channel;
    OtExtSender s;
    OtExtReceiver r;
    Rng rng_g(1);
    const std::vector<int>& row = train.row(7);
    Timer timer;  // A cold session: its base OTs are inside the timing.
    BaseOtSetupMs(s, r, channel);
    serve::EvaluatorResult result =
        RunDrivers(channel, garbler, serve::GarblerSession{s, rng_g, specs},
                   evaluator, serve::EvaluatorSession{r}, row);
    std::printf("\nmeasured secure forest (9 trees, pure SMC): %.1f ms, "
                "%.1f KiB, class %d (plaintext %d)\n",
                timer.ElapsedMillis(), channel.TotalBytes() / 1024.0,
                result.classes[0], model.forest.Predict(row));
  }
  PrintTelemetryBreakdown();
  return 0;
}
