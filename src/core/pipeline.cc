#include "core/pipeline.h"

#include <exception>
#include <thread>

#include "obs/trace.h"
#include "serve/engine.h"
#include "util/timer.h"

namespace pafs {

// The two parties' drivers over the pipeline's model with one disclosure
// set as the plan. Tree/forest specs are keyed by disclosure values in
// plan order, so the spec map belongs to the set too.
struct SecureClassificationPipeline::Drivers {
  Drivers(const serve::ServingModel& model, const std::vector<int>& plan)
      : garbler(model, plan), evaluator(WithPlan(model.setup, plan)) {}

  static serve::SessionSetup WithPlan(serve::SessionSetup setup,
                                      const std::vector<int>& plan) {
    setup.plan_features = plan;
    return setup;
  }

  const std::vector<int>& plan() const {
    return evaluator.setup().plan_features;
  }

  serve::GarblerDriver garbler;
  serve::EvaluatorDriver evaluator;
  serve::SpecMap specs;
};

serve::ServingModel serve::ServingModel::FromPipeline(
    const SecureClassificationPipeline& p) {
  return p.model_;
}

SecureClassificationPipeline::SecureClassificationPipeline(
    const Dataset& train, PipelineConfig config)
    : config_(config),
      server_rng_(config.seed * 2 + 1),
      client_rng_(config.seed * 2 + 2) {
  model_.setup.features = train.features();
  model_.setup.num_classes = train.num_classes();
  model_.setup.classifier = config.classifier;
  {
    obs::TraceSpan span("train");
    model_.nb.Train(train);
    model_.tree.Train(train);
    model_.linear.Train(train, LinearTrainParams());
    if (config.classifier == ClassifierKind::kForest) {
      Rng forest_rng(config.seed + 17);
      model_.forest.Train(train, ForestParams(), forest_rng);
    }
  }

  CostCalibration calibration;
  calibration.paillier_bits = config.paillier_bits;
  cost_model_ = std::make_unique<SmcCostModel>(
      model_.setup.features, model_.setup.num_classes, calibration);
  selector_ = std::make_unique<DisclosureSelector>(
      train, *cost_model_, config.classifier,
      config.classifier == ClassifierKind::kDecisionTree ? &model_.tree
                                                         : nullptr,
      config.classifier == ClassifierKind::kForest ? &model_.forest : nullptr);

  Timer timer;
  {
    obs::TraceSpan span("select");
    plan_ = selector_->SelectGreedy(config.risk_budget);
  }
  selection_seconds_ = timer.ElapsedSeconds();
  model_.setup.plan_features = plan_.features;
}

SecureClassificationPipeline::~SecureClassificationPipeline() = default;

int SecureClassificationPipeline::PlaintextPredict(
    const std::vector<int>& row) const {
  switch (config_.classifier) {
    case ClassifierKind::kNaiveBayes:
      return model_.nb.Predict(row);
    case ClassifierKind::kDecisionTree:
      return model_.tree.Predict(row);
    case ClassifierKind::kLinear:
      return model_.linear.Predict(row);
    case ClassifierKind::kForest:
      return model_.forest.Predict(row);
  }
  return -1;
}

SmcRunStats SecureClassificationPipeline::Classify(
    const std::vector<int>& row) {
  return ClassifyWithDisclosure(row, plan_.features);
}

std::vector<int> SecureClassificationPipeline::ClassifyBatch(
    const std::vector<std::vector<int>>& rows, SmcRunStats* stats) {
  SmcRunStats unused;
  return ClassifyRows(rows, plan_.features, stats != nullptr ? stats : &unused);
}

SmcRunStats SecureClassificationPipeline::ClassifyWithDisclosure(
    const std::vector<int>& row, const std::vector<int>& disclosure) {
  SmcRunStats stats;
  ClassifyRows({row}, disclosure, &stats);
  return stats;
}

std::vector<int> SecureClassificationPipeline::ClassifyRows(
    const std::vector<std::vector<int>>& rows,
    const std::vector<int>& disclosure, SmcRunStats* stats) {
  if (rows.empty()) return {};
  if (drivers_ == nullptr || drivers_->plan() != disclosure) {
    drivers_ = std::make_unique<Drivers>(model_, disclosure);
  }

  Channel& server_channel = channel_.endpoint(0);
  Channel& client_channel = channel_.endpoint(1);

  // The stats cover this query alone: both endpoints start fresh, so the
  // flips count every one-way leg but the opening one, whichever party
  // sends it and however the previous query ended.
  channel_.ResetStats();
  Timer timer;
  // The first query opens the session: each party runs its base OTs
  // before the disclosure, so that query's stats include the session
  // setup.
  const bool open_session = !ot_sender_.is_setup();

  // Disclosure phase: the client reveals every row's values of the plan's
  // features, in one flight (no count frame: both threads know the rows,
  // so a one-row exchange has a query's exact bytes). Each
  // party tags its thread so spans land in the right phase tree; the root
  // classify spans absorb the time each side spends blocked on the other
  // as self-time, keeping the leaf phases double-count free.
  serve::EvaluatorResult client_result;
  std::exception_ptr server_error, client_error;
  std::thread server([&] {
    obs::SetThreadParty("server");
    obs::TraceSpan root("classify");
    try {
      if (open_session) ot_sender_.Setup(server_channel, server_rng_);
      const std::vector<std::vector<int>> keys = serve::RecvDisclosures(
          server_channel, drivers_->evaluator.setup(), rows.size());
      drivers_->garbler.Run(
          server_channel, keys,
          serve::GarblerSession{ot_sender_, server_rng_, drivers_->specs});
    } catch (...) {
      server_error = std::current_exception();
      channel_.Close();  // Unblock the peer; it fails with kClosed.
    }
  });

  obs::SetThreadParty("client");
  obs::TraceSpan root("classify");
  try {
    if (open_session) ot_receiver_.Setup(client_channel, client_rng_);
    {
      obs::TraceSpan disclose("disclose");
      for (const std::vector<int>& row : rows) {
        for (int f : disclosure) {
          client_channel.SendU64(static_cast<uint64_t>(row[f]));
        }
      }
    }
    client_result = drivers_->evaluator.Run(
        client_channel, rows, serve::EvaluatorSession{ot_receiver_});
  } catch (...) {
    client_error = std::current_exception();
    channel_.Close();
  }
  server.join();

  if (server_error != nullptr || client_error != nullptr) {
    // Both parties usually fail (the failing one plus its peer unblocked
    // with kClosed). Rethrow the root cause, not the echo: a non-transport
    // exception is a bug and wins outright; otherwise ProtocolError beats
    // timeout beats closed.
    auto rank = [](const std::exception_ptr& e) {
      if (e == nullptr) return -1;
      try {
        std::rethrow_exception(e);
      } catch (const ProtocolError&) {
        return 2;
      } catch (const ChannelError& ce) {
        return ce.kind() == ChannelErrorKind::kTimeout ? 1 : 0;
      } catch (const TransportError&) {
        return 1;
      } catch (...) {
        return 3;
      }
    };
    std::rethrow_exception(rank(server_error) >= rank(client_error)
                               ? server_error
                               : client_error);
  }

  stats->predicted_class = client_result.classes.back();
  stats->and_gates = client_result.and_gates;
  stats->bytes = channel_.TotalBytes();
  stats->rounds = stats->bytes > 0 ? channel_.TotalRounds() + 1 : 0;
  stats->wall_seconds = timer.ElapsedSeconds();
  return client_result.classes;
}

}  // namespace pafs
