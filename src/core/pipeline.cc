#include "core/pipeline.h"

#include <chrono>
#include <exception>
#include <string>
#include <thread>

#include "net/framing.h"
#include "obs/trace.h"
#include "serve/engine.h"
#include "util/check.h"
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
      channel_(std::make_unique<MemChannelPair>()),
      server_rng_(config.seed * 2 + 1),
      client_rng_(config.seed * 2 + 2) {
  if (config.fault_plan.enabled()) {
    fault_injector_ = std::make_unique<FaultInjector>(config.fault_plan);
  }
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

  Rng calibration_rng(config.seed);
  CostCalibration calibration;
  if (config.measure_calibration) {
    calibration = CostCalibration::Measure(config.paillier_bits,
                                           calibration_rng);
  } else {
    calibration.paillier_bits = config.paillier_bits;
  }
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

std::vector<SmcRunStats> SecureClassificationPipeline::ClassifyBatch(
    const std::vector<std::vector<int>>& rows) {
  std::vector<SmcRunStats> stats;
  stats.reserve(rows.size());
  for (const std::vector<int>& row : rows) {
    stats.push_back(Classify(row));
  }
  return stats;
}

SmcRunStats SecureClassificationPipeline::ClassifyWithDisclosure(
    const std::vector<int>& row, const std::vector<int>& disclosure) {
  if (drivers_ == nullptr || drivers_->plan() != disclosure) {
    drivers_ = std::make_unique<Drivers>(model_, disclosure);
  }

  // Supervision: transport faults tear the session down and retry on a
  // fresh one with capped exponential backoff; anything else propagates
  // (it is a bug, not an environment failure).
  for (int attempt = 1;; ++attempt) {
    try {
      return RunProtocolOnce(row);
    } catch (const TransportError& e) {
      static obs::Counter& failures = obs::GetCounter("pipeline.failures");
      failures.Add();
      ResetSession();
      if (attempt >= config_.max_attempts) {
        throw ClassificationError(
            "classification failed after " + std::to_string(attempt) +
            " attempt(s): " + e.what());
      }
      static obs::Counter& retries = obs::GetCounter("pipeline.retries");
      retries.Add();
      double backoff = config_.retry_backoff_seconds *
                       static_cast<double>(1ull << (attempt - 1));
      if (backoff > 0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
      }
    }
  }
}

SmcRunStats SecureClassificationPipeline::RunProtocolOnce(
    const std::vector<int>& row) {
  const std::vector<int>& disclosure = drivers_->plan();
  const std::vector<FeatureSpec>& features = model_.setup.features;
  // Per-attempt channel stack. Under fault injection both sides speak CRC
  // framing (so mangled frames become typed errors, not silent garbage)
  // and the client side additionally passes through the injector.
  Channel* server_channel = &channel_->endpoint(0);
  Channel* client_channel = &channel_->endpoint(1);
  std::unique_ptr<FaultInjectingChannel> faulty;
  std::unique_ptr<FramedChannel> server_framed;
  std::unique_ptr<FramedChannel> client_framed;
  double recv_timeout = config_.recv_timeout_seconds;
  if (fault_injector_ != nullptr) {
    faulty = std::make_unique<FaultInjectingChannel>(*client_channel,
                                                     *fault_injector_);
    server_framed = std::make_unique<FramedChannel>(*server_channel);
    client_framed = std::make_unique<FramedChannel>(*faulty);
    server_channel = server_framed.get();
    client_channel = client_framed.get();
    // A dropped message must surface as a timeout, never a hang.
    if (recv_timeout <= 0) recv_timeout = 5.0;
  }
  if (recv_timeout > 0) {
    server_channel->set_recv_timeout_seconds(recv_timeout);
    client_channel->set_recv_timeout_seconds(recv_timeout);
  }

  uint64_t bytes_before = channel_->TotalBytes();
  uint64_t rounds_before = channel_->TotalRounds();
  Timer timer;
  // The first attempt on a fresh session (after construction or
  // ResetSession) opens it: each party runs its base OTs before the
  // disclosure, so that query's stats include the session setup.
  const bool open_session = !ot_sender_.is_setup();

  // Disclosure phase: the client reveals the plan's feature values. Each
  // party tags its thread so spans land in the right phase tree; the root
  // classify spans absorb the time each side spends blocked on the other
  // as self-time, keeping the leaf phases double-count free.
  std::vector<int> server_classes;
  serve::EvaluatorResult client_result;
  std::exception_ptr server_error, client_error;
  std::thread server([&] {
    obs::SetThreadParty("server");
    obs::TraceSpan root("classify");
    try {
      if (open_session) ot_sender_.Setup(*server_channel, server_rng_);
      std::vector<int> key;
      for (int f : disclosure) {
        uint64_t v = server_channel->RecvU64();
        // Disclosed values are wire data: validate against the schema
        // before they parameterize model specialization.
        if (v >= static_cast<uint64_t>(features[f].cardinality)) {
          throw ProtocolError("pipeline: disclosed value " +
                              std::to_string(v) + " out of range for " +
                              features[f].name);
        }
        key.push_back(static_cast<int>(v));
      }
      server_classes = drivers_->garbler.Run(
          *server_channel, {key},
          serve::GarblerSession{ot_sender_, server_rng_, drivers_->specs});
    } catch (...) {
      server_error = std::current_exception();
      channel_->Close();  // Unblock the peer; it fails with kClosed.
    }
  });

  obs::SetThreadParty("client");
  obs::TraceSpan root("classify");
  try {
    if (open_session) ot_receiver_.Setup(*client_channel, client_rng_);
    {
      obs::TraceSpan disclose("disclose");
      for (int f : disclosure) {
        client_channel->SendU64(static_cast<uint64_t>(row[f]));
      }
    }
    client_result = drivers_->evaluator.Run(
        *client_channel, {row}, serve::EvaluatorSession{ot_receiver_});
  } catch (...) {
    client_error = std::current_exception();
    channel_->Close();
  }
  server.join();

  if (server_error != nullptr || client_error != nullptr) {
    // Both parties usually fail (the faulted one plus its peer unblocked
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

  PAFS_CHECK_EQ(server_classes[0], client_result.classes[0]);
  SmcRunStats stats;
  stats.predicted_class = client_result.classes[0];
  stats.and_gates = client_result.and_gates;
  stats.bytes = channel_->TotalBytes() - bytes_before;
  stats.rounds = channel_->TotalRounds() - rounds_before;
  stats.wall_seconds = timer.ElapsedSeconds();
  return stats;
}

void SecureClassificationPipeline::ResetSession() {
  channel_ = std::make_unique<MemChannelPair>();
  // OT endpoints carry per-session correlation state; fresh base OTs run
  // on the next attempt. The fault injector deliberately survives so its
  // budget does not reset (a one-shot fault stays one-shot).
  ot_sender_ = OtExtSender();
  ot_receiver_ = OtExtReceiver();
}

}  // namespace pafs
