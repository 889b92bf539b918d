// Tests for the disclosure selector and the end-to-end pipeline: budget
// compliance, greedy-vs-exhaustive quality, speedup behaviour, and
// secure-equals-plaintext across all classifiers.
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "core/selection.h"
#include "data/hypertension_gen.h"
#include "data/warfarin_gen.h"
#include "util/random.h"

namespace pafs {
namespace {

class SelectionTest : public ::testing::Test {
 protected:
  SelectionTest() : rng_(77), data_(GenerateWarfarinCohort(2500, rng_)) {
    tree_.Train(data_);
    CostCalibration cal;  // Defaults; relative costs are what matter.
    cost_model_ = std::make_unique<SmcCostModel>(data_.features(),
                                                 data_.num_classes(), cal);
  }

  Rng rng_;
  Dataset data_;
  DecisionTree tree_;
  std::unique_ptr<SmcCostModel> cost_model_;
};

TEST_F(SelectionTest, GreedyRespectsBudget) {
  DisclosureSelector selector(data_, *cost_model_,
                              ClassifierKind::kNaiveBayes);
  for (double budget : {0.0, 0.01, 0.05, 0.2, 1.0}) {
    DisclosurePlan plan = selector.SelectGreedy(budget);
    EXPECT_LE(plan.risk_lift, budget + 1e-9) << "budget " << budget;
  }
}

TEST_F(SelectionTest, NeverDisclosesSensitiveFeatures) {
  DisclosureSelector selector(data_, *cost_model_,
                              ClassifierKind::kNaiveBayes);
  DisclosurePlan plan = selector.SelectGreedy(1.0);  // Unconstrained.
  for (int f : plan.features) {
    EXPECT_NE(f, WarfarinSchema::kVkorc1);
    EXPECT_NE(f, WarfarinSchema::kCyp2c9);
  }
}

TEST_F(SelectionTest, LargerBudgetNeverSlower) {
  DisclosureSelector selector(data_, *cost_model_, ClassifierKind::kLinear);
  double last_cost = 1e18;
  for (double budget : {0.0, 0.02, 0.05, 0.1, 0.3, 1.0}) {
    DisclosurePlan plan = selector.SelectGreedy(budget);
    EXPECT_LE(plan.compute_seconds, last_cost + 1e-12);
    last_cost = plan.compute_seconds;
  }
}

TEST_F(SelectionTest, UnconstrainedDisclosesEverythingPublic) {
  DisclosureSelector selector(data_, *cost_model_,
                              ClassifierKind::kNaiveBayes);
  DisclosurePlan plan = selector.SelectGreedy(1.0);
  // Every public feature strictly shrinks the NB circuit, so all should go.
  EXPECT_EQ(plan.features.size(), data_.PublicCandidateFeatures().size());
  EXPECT_GT(plan.speedup_vs_pure, 2.0);
}

TEST_F(SelectionTest, IncrementalAndScratchAgree) {
  DisclosureSelector selector(data_, *cost_model_,
                              ClassifierKind::kNaiveBayes);
  for (double budget : {0.03, 0.1}) {
    DisclosurePlan fast = selector.SelectGreedy(
        budget, GreedyObjective::kMaxCostGain, /*incremental=*/true);
    DisclosurePlan slow = selector.SelectGreedy(
        budget, GreedyObjective::kMaxCostGain, /*incremental=*/false);
    EXPECT_EQ(fast.features, slow.features);
    EXPECT_NEAR(fast.risk_lift, slow.risk_lift, 1e-12);
  }
}

TEST_F(SelectionTest, ExhaustiveAtLeastAsGoodAsGreedy) {
  DisclosureSelector selector(data_, *cost_model_,
                              ClassifierKind::kNaiveBayes);
  for (double budget : {0.02, 0.08}) {
    DisclosurePlan greedy = selector.SelectGreedy(budget);
    DisclosurePlan exhaustive = selector.SelectExhaustive(budget);
    EXPECT_LE(exhaustive.risk_lift, budget + 1e-9);
    EXPECT_LE(exhaustive.compute_seconds, greedy.compute_seconds + 1e-12);
  }
}

TEST_F(SelectionTest, GreedyPathIsMonotone) {
  DisclosureSelector selector(data_, *cost_model_,
                              ClassifierKind::kDecisionTree, &tree_);
  std::vector<DisclosurePlan> path = selector.GreedyPath();
  ASSERT_EQ(path.size(), data_.PublicCandidateFeatures().size() + 1);
  for (size_t i = 1; i < path.size(); ++i) {
    EXPECT_EQ(path[i].features.size(), i);
    // Risk grows along the path; cost shrinks (tree cost is sampled, give
    // it a little slack).
    EXPECT_GE(path[i].risk_lift, path[i - 1].risk_lift - 1e-9);
    EXPECT_LE(path[i].compute_seconds,
              path[i - 1].compute_seconds * 1.05 + 1e-12);
  }
}

TEST_F(SelectionTest, ParetoFrontierMatchesBudgets) {
  DisclosureSelector selector(data_, *cost_model_, ClassifierKind::kLinear);
  std::vector<double> budgets = {0.0, 0.05, 0.5};
  auto frontier = selector.ParetoFrontier(budgets);
  ASSERT_EQ(frontier.size(), budgets.size());
  for (size_t i = 0; i < budgets.size(); ++i) {
    EXPECT_LE(frontier[i].risk_lift, budgets[i] + 1e-9);
  }
}

TEST_F(SelectionTest, GainPerRiskPrefersCheapRisk) {
  DisclosureSelector selector(data_, *cost_model_,
                              ClassifierKind::kNaiveBayes);
  DisclosurePlan plan =
      selector.SelectGreedy(0.05, GreedyObjective::kGainPerRisk);
  EXPECT_LE(plan.risk_lift, 0.05 + 1e-9);
  EXPECT_FALSE(plan.features.empty());
}

class PipelineTest : public ::testing::TestWithParam<ClassifierKind> {};

TEST_P(PipelineTest, SecureMatchesPlaintextUnderPlan) {
  Rng rng(31);
  Dataset train = GenerateWarfarinCohort(1500, rng);
  PipelineConfig config;
  config.classifier = GetParam();
  config.risk_budget = 0.08;
  SecureClassificationPipeline pipeline(train, config);

  EXPECT_LE(pipeline.plan().risk_lift, config.risk_budget + 1e-9);

  int mismatches = 0;
  for (size_t i = 0; i < 8; ++i) {
    const std::vector<int>& row = train.row(i * 131);
    SmcRunStats stats = pipeline.Classify(row);
    EXPECT_GE(stats.predicted_class, 0);
    EXPECT_LT(stats.predicted_class, train.num_classes());
    EXPECT_GT(stats.bytes, 0u);
    if (stats.predicted_class != pipeline.PlaintextPredict(row)) ++mismatches;
  }
  // Every classifier, linear included, runs the serving drivers and must
  // be exact.
  EXPECT_EQ(mismatches, 0);
}

TEST_P(PipelineTest, DisclosureReducesMeasuredTraffic) {
  Rng rng(33);
  Dataset train = GenerateWarfarinCohort(1200, rng);
  PipelineConfig config;
  config.classifier = GetParam();
  config.risk_budget = 1.0;  // Disclose maximally.
  SecureClassificationPipeline pipeline(train, config);
  const std::vector<int>& row = train.row(5);

  SmcRunStats pure = pipeline.ClassifyWithDisclosure(row, {});
  SmcRunStats planned = pipeline.Classify(row);
  EXPECT_LT(planned.bytes, pure.bytes);
}

INSTANTIATE_TEST_SUITE_P(Classifiers, PipelineTest,
                         ::testing::Values(ClassifierKind::kNaiveBayes,
                                           ClassifierKind::kDecisionTree,
                                           ClassifierKind::kLinear,
                                           ClassifierKind::kForest),
                         [](const auto& info) {
                           return std::string(ClassifierName(info.param));
                         });

TEST(PipelineBatchTest, BatchMatchesIndividualCalls) {
  Rng rng(55);
  Dataset train = GenerateWarfarinCohort(1200, rng);
  PipelineConfig config;
  config.classifier = ClassifierKind::kNaiveBayes;
  config.risk_budget = 0.05;
  SecureClassificationPipeline pipeline(train, config);
  std::vector<std::vector<int>> rows;
  for (size_t i = 0; i < 5; ++i) rows.push_back(train.row(i * 211));
  std::vector<SmcRunStats> batch = pipeline.ClassifyBatch(rows);
  ASSERT_EQ(batch.size(), rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(batch[i].predicted_class, pipeline.PlaintextPredict(rows[i]));
  }
}

TEST(PipelineBatchTest, SpecCacheSurvivesDisclosureSwitch) {
  // Alternate between two disclosure sets: the cache must rebuild when the
  // set changes and results must stay correct either way.
  Rng rng(56);
  Dataset train = GenerateWarfarinCohort(1000, rng);
  PipelineConfig config;
  config.classifier = ClassifierKind::kNaiveBayes;
  config.risk_budget = 0.05;
  SecureClassificationPipeline pipeline(train, config);
  const std::vector<int>& row = train.row(3);
  std::vector<int> set_a = {WarfarinSchema::kAge};
  std::vector<int> set_b = {WarfarinSchema::kAge, WarfarinSchema::kRace};
  for (int round = 0; round < 2; ++round) {
    EXPECT_EQ(pipeline.ClassifyWithDisclosure(row, set_a).predicted_class,
              pipeline.PlaintextPredict(row));
    EXPECT_EQ(pipeline.ClassifyWithDisclosure(row, set_b).predicted_class,
              pipeline.PlaintextPredict(row));
  }
}

TEST(PipelineHypertensionTest, WorksOnSecondCohort) {
  Rng rng(44);
  Dataset train = GenerateHypertensionCohort(1500, rng);
  PipelineConfig config;
  config.classifier = ClassifierKind::kNaiveBayes;
  config.risk_budget = 0.1;
  SecureClassificationPipeline pipeline(train, config);
  for (size_t i = 0; i < 5; ++i) {
    const std::vector<int>& row = train.row(i * 97);
    SmcRunStats stats = pipeline.Classify(row);
    EXPECT_EQ(stats.predicted_class, pipeline.PlaintextPredict(row));
  }
}

}  // namespace
}  // namespace pafs
