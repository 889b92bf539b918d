// End-to-end orchestration of the paper's system:
//
//   1. Train the classifier(s) on the server's cohort.
//   2. Select the disclosure plan under the privacy budget (src/core).
//   3. Per patient: client reveals the plan's features in plaintext, the
//      server specializes the model, and the residual secure protocol
//      classifies the hidden remainder.
//
// The pipeline runs both parties in-process on two threads over the
// simulated network, measuring real compute and exact traffic. Step 3 is
// the serving engine's two protocol drivers (serve/engine.h) with no
// pools: the same online path an unpooled server and client run. Each
// query runs once: the in-process queue cannot fail by itself, so there
// is nothing to retry (retry belongs to the serving client's RetryPolicy,
// serve/client.h). A query that throws closes the session, and later
// queries on the pipeline fail with ChannelError{kClosed}.
#ifndef PAFS_CORE_PIPELINE_H_
#define PAFS_CORE_PIPELINE_H_

#include <memory>

#include "core/selection.h"
#include "ml/linear_model.h"
#include "ml/naive_bayes.h"
#include "net/channel.h"
#include "ot/iknp.h"
#include "serve/model.h"
#include "smc/common.h"
#include "util/random.h"

namespace pafs {

struct PipelineConfig {
  ClassifierKind classifier = ClassifierKind::kNaiveBayes;
  double risk_budget = 0.05;  // Max posterior lift for any sensitive attr.
  // Paillier modulus size the cost model prices the linear protocol at
  // (and CostCalibration::Measure times); no key is generated.
  int paillier_bits = 512;
  uint64_t seed = 42;
};

class SecureClassificationPipeline {
 public:
  SecureClassificationPipeline(const Dataset& train, PipelineConfig config);
  ~SecureClassificationPipeline();

  const DisclosurePlan& plan() const { return plan_; }
  const DisclosureSelector& selector() const { return *selector_; }
  double selection_seconds() const { return selection_seconds_; }
  // Schema and configuration, exposed so the serving layer (src/serve) can
  // lift a trained pipeline into a deployable ServingModel.
  const PipelineConfig& config() const { return config_; }
  const std::vector<FeatureSpec>& features() const {
    return model_.setup.features;
  }
  int num_classes() const { return model_.setup.num_classes; }

  // Secure classification of one patient row: runs both parties, returns
  // the client-observed stats (bytes/rounds cover the whole exchange).
  SmcRunStats Classify(const std::vector<int>& row);
  // Classifies every row through one protocol exchange (one OT extension
  // matrix, one circuit prelude per distinct disclosure key) and returns
  // the classes in row order. `stats`, when non-null, gets the exchange's
  // bytes, rounds, wall time and AND gates (predicted_class is the last
  // row's).
  std::vector<int> ClassifyBatch(const std::vector<std::vector<int>>& rows,
                                 SmcRunStats* stats = nullptr);
  // Like Classify but with an explicit disclosure set (e.g. empty set =
  // pure SMC baseline), bypassing the selected plan.
  SmcRunStats ClassifyWithDisclosure(const std::vector<int>& row,
                                     const std::vector<int>& disclosure);

  int PlaintextPredict(const std::vector<int>& row) const;

  const NaiveBayes& naive_bayes() const { return model_.nb; }
  const DecisionTree& tree() const { return model_.tree; }
  const LinearModel& linear() const { return model_.linear; }
  const RandomForest& forest() const { return model_.forest; }

 private:
  friend struct serve::ServingModel;  // FromPipeline copies model_.

  PipelineConfig config_;
  // The trained models, with the schema and the selected plan as setup.
  // The forest is trained only for ClassifierKind::kForest.
  serve::ServingModel model_;

  std::unique_ptr<SmcCostModel> cost_model_;
  std::unique_ptr<DisclosureSelector> selector_;
  DisclosurePlan plan_;
  double selection_seconds_ = 0;

  // The protocol drivers for the last disclosure set used, rebuilt only
  // when the set changes.
  struct Drivers;
  std::unique_ptr<Drivers> drivers_;

  // Runs `rows` under `disclosure` as one exchange; Classify is the
  // one-row case. When a party throws, the root cause is rethrown as is.
  std::vector<int> ClassifyRows(const std::vector<std::vector<int>>& rows,
                                const std::vector<int>& disclosure,
                                SmcRunStats* stats);

  // Long-lived protocol session state (base OTs amortize across calls).
  MemChannelPair channel_;
  OtExtSender ot_sender_;
  OtExtReceiver ot_receiver_;
  Rng server_rng_;
  Rng client_rng_;
};

}  // namespace pafs

#endif  // PAFS_CORE_PIPELINE_H_
