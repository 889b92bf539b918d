// Tests for the random forest (plaintext) and its secure evaluation.
#include <map>
#include <thread>

#include <gtest/gtest.h>

#include "data/warfarin_gen.h"
#include "ml/metrics.h"
#include "ml/random_forest.h"
#include "net/channel.h"
#include "ot/iknp.h"
#include "serve/engine.h"
#include "serve/model.h"
#include "smc/secure_forest.h"
#include "util/random.h"

namespace pafs {
namespace {

class ForestTest : public ::testing::Test {
 protected:
  ForestTest() : rng_(99), data_(GenerateWarfarinCohort(2000, rng_)) {
    ForestParams params;
    params.num_trees = 9;
    params.tree.max_depth = 6;
    forest_.Train(data_, params, rng_);
  }

  Rng rng_;
  Dataset data_;
  RandomForest forest_;
};

TEST_F(ForestTest, TrainsRequestedTrees) {
  EXPECT_EQ(forest_.num_trees(), 9);
  EXPECT_TRUE(forest_.trained());
}

TEST_F(ForestTest, BeatsMajorityBaseline) {
  Rng rng(5);
  Dataset test = GenerateWarfarinCohort(800, rng);
  std::vector<int> preds, truth;
  for (size_t i = 0; i < test.size(); ++i) {
    preds.push_back(forest_.Predict(test.row(i)));
    truth.push_back(test.label(i));
  }
  std::vector<double> priors = test.ClassPriors();
  double majority = *std::max_element(priors.begin(), priors.end());
  EXPECT_GT(Accuracy(preds, truth), majority + 0.03);
}

TEST_F(ForestTest, VotesSumToTreeCount) {
  std::vector<int> votes = forest_.Votes(data_.row(3));
  int total = 0;
  for (int v : votes) total += v;
  EXPECT_EQ(total, forest_.num_trees());
}

TEST_F(ForestTest, PredictIsArgmaxOfVotes) {
  for (size_t i = 0; i < 20; ++i) {
    std::vector<int> votes = forest_.Votes(data_.row(i * 31));
    int argmax = static_cast<int>(
        std::max_element(votes.begin(), votes.end()) - votes.begin());
    EXPECT_EQ(forest_.Predict(data_.row(i * 31)), argmax);
  }
}

TEST_F(ForestTest, FeatureSubsettingRespected) {
  // Each member tree must only use features from its allowed subset; we
  // can't see the subsets, but the union must stay within the schema and
  // different trees should differ (with overwhelming probability).
  std::vector<int> used = forest_.UsedFeatures();
  for (int f : used) {
    EXPECT_GE(f, 0);
    EXPECT_LT(f, data_.num_features());
  }
  bool any_difference = false;
  for (int t = 1; t < forest_.num_trees(); ++t) {
    if (forest_.tree(t).UsedFeatures() != forest_.tree(0).UsedFeatures()) {
      any_difference = true;
    }
  }
  EXPECT_TRUE(any_difference);
}

TEST_F(ForestTest, SpecializePreservesPredictions) {
  std::map<int, int> disclosed = {{WarfarinSchema::kRace, 1},
                                  {WarfarinSchema::kAge, 5}};
  RandomForest small = forest_.Specialize(disclosed);
  for (size_t i = 0; i < 100; ++i) {
    std::vector<int> row = data_.row(i);
    row[WarfarinSchema::kRace] = 1;
    row[WarfarinSchema::kAge] = 5;
    ASSERT_EQ(small.Predict(row), forest_.Predict(row)) << "row " << i;
  }
}

TEST_F(ForestTest, AllowedFeaturesParamIsEnforced) {
  DecisionTree tree;
  TreeParams params;
  params.allowed_features = {WarfarinSchema::kVkorc1};
  tree.Train(data_, params);
  std::vector<int> used = tree.UsedFeatures();
  for (int f : used) EXPECT_EQ(f, WarfarinSchema::kVkorc1);
}

class SecureForestTest : public ForestTest {
 protected:
  SecureForestTest() {
    // Open the OT session both parties' drivers run on.
    std::thread peer(
        [&] { ot_sender_.Setup(channel_.endpoint(0), server_rng_); });
    ot_receiver_.Setup(channel_.endpoint(1), client_rng_);
    peer.join();
  }

  // One secure classification of `row` through the serving protocol
  // drivers, with the `plan` features disclosed and both parties in this
  // process. The garbler's decoded class must match the evaluator's.
  serve::EvaluatorResult RunSecure(std::vector<int> plan,
                                   const std::vector<int>& row) {
    serve::ServingModel model;
    model.setup.features = data_.features();
    model.setup.num_classes = data_.num_classes();
    model.setup.classifier = ClassifierKind::kForest;
    model.setup.plan_features = std::move(plan);
    model.forest = forest_;
    serve::GarblerDriver garbler(model, model.setup.plan_features);
    serve::EvaluatorDriver evaluator(model.setup);
    serve::SpecMap specs;
    std::vector<int> key;
    for (int f : model.setup.plan_features) key.push_back(row[f]);
    std::vector<int> server_classes;
    std::thread server([&] {
      server_classes =
          garbler.Run(channel_.endpoint(0), {key},
                      serve::GarblerSession{ot_sender_, server_rng_, specs});
    });
    serve::EvaluatorResult result =
        evaluator.Run(channel_.endpoint(1), {row},
                      serve::EvaluatorSession{ot_receiver_});
    server.join();
    EXPECT_EQ(server_classes, result.classes);
    return result;
  }

  MemChannelPair channel_;
  OtExtSender ot_sender_;
  OtExtReceiver ot_receiver_;
  Rng server_rng_{7}, client_rng_{8};
};

TEST_F(SecureForestTest, MatchesPlaintextNoDisclosure) {
  for (size_t i = 0; i < 6; ++i) {
    const std::vector<int>& row = data_.row(i * 97);
    serve::EvaluatorResult result = RunSecure({}, row);
    EXPECT_EQ(result.classes[0], forest_.Predict(row)) << "row " << i;
  }
}

TEST_F(SecureForestTest, MatchesPlaintextWithSpecialization) {
  for (size_t i = 0; i < 5; ++i) {
    const std::vector<int>& row = data_.row(i * 113);
    serve::EvaluatorResult result = RunSecure(
        {WarfarinSchema::kRace, WarfarinSchema::kAge, WarfarinSchema::kWeight},
        row);
    EXPECT_EQ(result.classes[0], forest_.Predict(row)) << "row " << i;
  }
}

TEST_F(SecureForestTest, SpecializationShrinksCircuit) {
  std::map<int, int> disclosed = {{WarfarinSchema::kRace, 0},
                                  {WarfarinSchema::kAge, 4},
                                  {WarfarinSchema::kWeight, 2},
                                  {WarfarinSchema::kGender, 1}};
  RandomForest specialized = forest_.Specialize(disclosed);
  SecureForestCircuit full(forest_, data_.features(), data_.num_classes(), {});
  SecureForestCircuit pruned(specialized, data_.features(),
                             data_.num_classes(), disclosed);
  EXPECT_LT(pruned.total_leaves(), full.total_leaves());
  EXPECT_LT(pruned.circuit().Stats().and_gates,
            full.circuit().Stats().and_gates);
}

}  // namespace
}  // namespace pafs
