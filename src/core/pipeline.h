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
// pools: the same online path an unpooled server and client run.
#ifndef PAFS_CORE_PIPELINE_H_
#define PAFS_CORE_PIPELINE_H_

#include <memory>
#include <stdexcept>

#include "core/selection.h"
#include "ml/linear_model.h"
#include "ml/naive_bayes.h"
#include "net/channel.h"
#include "net/fault.h"
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

  // Fault tolerance. A query attempt that dies with a TransportError is
  // retried on a fresh session (new channel, new OT setup) with capped
  // exponential backoff, up to max_attempts total attempts.
  int max_attempts = 3;
  double retry_backoff_seconds = 0.005;  // Doubles per retry.
  // Per-Recv deadline. 0 = wait forever, except under fault injection,
  // where a silent drop must not hang the query: there 0 means 5 s.
  double recv_timeout_seconds = 0;
  // Deterministic fault injection (client->server sends), off by default;
  // FromEnv() lets any binary opt in via PAFS_FAULT_* variables. When
  // enabled, both endpoints run over CRC framing so corruption and
  // truncation surface as typed errors instead of garbage plaintext.
  FaultPlan fault_plan = FaultPlan::FromEnv();
};

// Terminal classification failure: every attempt died on a transport or
// protocol fault. What() carries the final attempt's root cause.
class ClassificationError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
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

  // Faults injected so far (0 when injection is disabled). The count
  // persists across retries: a one-shot plan fires once, then the retried
  // attempt runs clean.
  uint64_t faults_injected() const {
    return fault_injector_ ? fault_injector_->injected() : 0;
  }

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

  // Runs `rows` under `disclosure` as one exchange, retrying transport
  // faults on a fresh session; Classify is the one-row case.
  std::vector<int> ClassifyRows(const std::vector<std::vector<int>>& rows,
                                const std::vector<int>& disclosure,
                                SmcRunStats* stats);
  // One protocol attempt over the current session with the current
  // drivers; throws TransportError on channel/peer faults.
  std::vector<int> RunProtocolOnce(const std::vector<std::vector<int>>& rows,
                                   SmcRunStats* stats);
  // Discards the (possibly wedged) session: fresh channel pair, fresh OT
  // endpoints. Base OTs re-run on the next attempt.
  void ResetSession();

  // Long-lived protocol session state (base OTs amortize across calls).
  // The channel is a pointer so a faulted session can be torn down and
  // rebuilt; the fault injector outlives it to keep its budget across
  // retries.
  std::unique_ptr<MemChannelPair> channel_;
  std::unique_ptr<FaultInjector> fault_injector_;
  OtExtSender ot_sender_;
  OtExtReceiver ot_receiver_;
  Rng server_rng_;
  Rng client_rng_;
};

}  // namespace pafs

#endif  // PAFS_CORE_PIPELINE_H_
