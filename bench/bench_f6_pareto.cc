// F6 [abstract-anchored]: the performance/privacy frontier. For a sweep of
// risk budgets, the selector picks the best disclosure set; we report the
// achieved risk, the modeled cost, and the speedup over pure SMC — per
// classifier. The frontier should rise steeply: most of the speedup is
// available at small risk.
//
// Beside each plan's budgeted lift(S) it prints lift(S+ans): the risk if
// the server also saw the model's answer for every patient
// (EvaluateWithLabel over the cohort relabeled with the model's
// predictions). The protocol keeps the answer with the client, so the
// deployed risk is lift(S); the second column prices what an output
// report to the server would cost.
#include "bench_common.h"
#include "ml/decision_tree.h"
#include "ml/linear_model.h"
#include "ml/naive_bayes.h"
#include "privacy/risk.h"

using namespace pafs;
using namespace pafs::bench;

int main(int argc, char** argv) {
  BenchArgs(argc, argv);
  Banner("F6", "performance/privacy Pareto frontier (speedup vs budget)");
  Dataset cohort = WarfarinCohort(4000);
  DecisionTree tree;
  tree.Train(cohort);
  NaiveBayes nb;
  nb.Train(cohort);
  LinearModel linear;
  linear.Train(cohort, LinearTrainParams());
  Rng rng(3);
  CostCalibration calibration = CostCalibration::Measure(512, rng);
  SmcCostModel cost_model(cohort.features(), cohort.num_classes(),
                          calibration);

  std::vector<double> budgets = {0.0,  0.005, 0.01, 0.02, 0.05,
                                 0.10, 0.15,  0.25, 0.50, 1.00};

  for (ClassifierKind kind : AllClassifiers()) {
    DisclosureSelector selector(
        cohort, cost_model, kind,
        kind == ClassifierKind::kDecisionTree ? &tree : nullptr);
    Dataset answered(cohort.features(), cohort.num_classes());
    for (size_t r = 0; r < cohort.size(); ++r) {
      const std::vector<int>& row = cohort.row(r);
      int answer = kind == ClassifierKind::kDecisionTree ? tree.Predict(row)
                   : kind == ClassifierKind::kNaiveBayes ? nb.Predict(row)
                                                         : linear.Predict(row);
      answered.AddRow(row, answer);
    }
    DisclosureRisk answer_risk(answered);
    std::printf("\n%s\n", ClassifierName(kind));
    std::printf("  %-8s %-9s %-12s %-10s %-9s %-4s %s\n", "budget", "risk",
                "lift(S+ans)", "cost(ms)", "speedup", "|S|",
                "disclosure set");
    std::vector<DisclosurePlan> frontier = selector.ParetoFrontier(budgets);
    for (size_t i = 0; i < budgets.size(); ++i) {
      const DisclosurePlan& plan = frontier[i];
      std::printf("  %-8.3f %-9.4f %-12.4f %-10.4f %-9.1f %-4zu %s\n",
                  budgets[i], plan.risk_lift,
                  answer_risk.EvaluateWithLabel(plan.features).max_lift,
                  plan.compute_seconds * 1e3, plan.speedup_vs_pure,
                  plan.features.size(),
                  FeatureNames(cohort, plan.features).c_str());
    }
  }
  PrintTelemetryBreakdown();
  return 0;
}
