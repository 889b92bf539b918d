#include "serve/engine.h"

#include <algorithm>
#include <array>
#include <utility>

#include "gc/protocol.h"
#include "obs/trace.h"
#include "ot/ot_pool.h"
#include "serve/precompute.h"
#include "smc/secure_forest.h"
#include "smc/secure_linear_aby.h"
#include "smc/secure_nb.h"
#include "smc/secure_tree.h"
#include "util/parallel.h"

namespace pafs::serve {

namespace {

// A record's disclosure values in plan order (its GC pool key) as the
// feature -> value map the model encoders take.
std::map<int, int> DisclosureMap(const std::vector<int>& plan,
                                 const std::vector<int>& key) {
  std::map<int, int> disclosed;
  for (size_t i = 0; i < plan.size(); ++i) disclosed.emplace(plan[i], key[i]);
  return disclosed;
}

// NB and linear circuits depend only on which features are disclosed, so
// both ends build them once per plan, on placeholder values.
void MakeSessionSpecs(const SessionSetup& setup, const std::vector<int>& plan,
                      std::unique_ptr<SecureNbCircuit>* nb,
                      std::unique_ptr<SecureLinearAbyProtocol>* linear) {
  std::map<int, int> placeholders;
  for (int f : plan) placeholders.emplace(f, 0);
  if (setup.classifier == ClassifierKind::kNaiveBayes) {
    *nb = std::make_unique<SecureNbCircuit>(setup.features, setup.num_classes,
                                            placeholders);
  } else if (setup.classifier == ClassifierKind::kLinear) {
    *linear = std::make_unique<SecureLinearAbyProtocol>(
        setup.features, setup.num_classes, placeholders);
  }
}

const Circuit* SessionCircuit(const SecureNbCircuit* nb,
                              const SecureLinearAbyProtocol* linear) {
  if (nb != nullptr) return &nb->circuit();
  if (linear != nullptr) return &linear->argmax_circuit();
  return nullptr;
}

}  // namespace

GarblerDriver::GarblerDriver(const ServingModel& model, std::vector<int> plan)
    : model_(model), plan_(std::move(plan)) {
  MakeSessionSpecs(model.setup, plan_, &nb_, &linear_);
}

GarblerDriver::~GarblerDriver() = default;

std::shared_ptr<const KeySpec> GarblerDriver::SpecFor(
    const std::vector<int>& key, const GarblerSession& session) const {
  std::shared_ptr<const KeySpec> spec;
  auto it = session.specs.find(key);
  if (it != session.specs.end()) {
    spec = it->second;
  } else {
    obs::TraceSpan build("smc.build");
    const SessionSetup& setup = model_.setup;
    KeySpec data;
    std::map<int, int> disclosed = DisclosureMap(plan_, key);
    if (setup.classifier == ClassifierKind::kForest) {
      RandomForest specialized = model_.forest.Specialize(disclosed);
      auto circuit = std::make_shared<SecureForestCircuit>(
          specialized, setup.features, setup.num_classes, disclosed);
      data.garbler_bits = circuit->EncodeModel(specialized);
      data.layout = &circuit->layout();
      data.circuit = &circuit->circuit();
      data.owner = std::move(circuit);
    } else {
      DecisionTree specialized = model_.tree.Specialize(disclosed);
      auto circuit = std::make_shared<SecureTreeCircuit>(
          specialized, setup.features, setup.num_classes, disclosed);
      data.garbler_bits = circuit->EncodeModel(specialized);
      data.layout = &circuit->layout();
      data.circuit = &circuit->circuit();
      data.owner = std::move(circuit);
    }
    spec = std::make_shared<const KeySpec>(std::move(data));
    if (session.specs.size() < session.max_specs) {
      session.specs.emplace(key, spec);
    }
  }
  // (Re-)register with the GC pool on every lookup: the bump refreshes the
  // key in the pool's LRU, and re-attaches the circuit if the pool restored
  // this key's material from a resumption snapshot. The aliasing
  // shared_ptr keeps the circuit alive while the pool holds it.
  if (session.gc_pool != nullptr) {
    session.gc_pool->RegisterKey(
        key, std::shared_ptr<const Circuit>(spec, spec->circuit));
  }
  return spec;
}

std::vector<int> GarblerDriver::Run(Channel& channel,
                                    const std::vector<std::vector<int>>& keys,
                                    const GarblerSession& session) const {
  const SessionSetup& setup = model_.setup;
  const size_t n = keys.size();
  // NB and linear records share the session circuit (one pool key) but
  // each fold their disclosure values into their own garbler bits; linear
  // records also append their phase-1 OT messages. Tree/forest records
  // with the same disclosure key share one KeySpec (one circuit, one
  // garbler-bits encoding, one prelude on the wire).
  const Circuit* session_circuit = SessionCircuit(nb_.get(), linear_.get());
  const std::vector<int> session_key;
  if (session.gc_pool != nullptr && session_circuit != nullptr) {
    session.gc_pool->RegisterKey(
        session_key, std::shared_ptr<const Circuit>(
                          std::shared_ptr<const Circuit>(), session_circuit));
  }
  std::vector<std::shared_ptr<const KeySpec>> specs(n);
  std::vector<BitVec> garbler_bits(n);
  std::vector<std::array<Block, 2>> messages;
  std::vector<GcGarbleItem> items(n);
  std::vector<GarbledCircuit> pre(n);
  for (size_t i = 0; i < n; ++i) {
    if (session_circuit != nullptr) {
      obs::TraceSpan encode("smc.encode");
      std::map<int, int> disclosed = DisclosureMap(plan_, keys[i]);
      if (nb_ != nullptr) {
        garbler_bits[i] = nb_->EncodeModel(model_.nb, disclosed);
      } else {
        std::vector<std::array<Block, 2>> shares = linear_->ShareMessages(
            model_.linear, disclosed, session.rng, &garbler_bits[i]);
        messages.insert(messages.end(), shares.begin(), shares.end());
      }
      items[i] = {session_circuit, &garbler_bits[i]};
    } else {
      specs[i] = SpecFor(keys[i], session);
      if (std::find(keys.begin(), keys.begin() + i, keys[i]) ==
          keys.begin() + i) {
        SendCircuitPrelude(channel, *specs[i]->layout, *specs[i]->circuit);
      }
      items[i] = {specs[i]->circuit, &specs[i]->garbler_bits};
    }
    const std::vector<int>& pool_key =
        session_circuit != nullptr ? session_key : keys[i];
    if (session.gc_pool != nullptr &&
        session.gc_pool->TryTake(pool_key, &pre[i])) {
      items[i].pregarbled = &pre[i];
    }
  }
  // Linear phase 1: one correlated OT per message, all records at once.
  if (!messages.empty()) {
    PooledOtSend(channel, session.ot, messages, session.ot_pads);
  }
  std::vector<BitVec> outputs = GcRunGarblerBatch(
      channel, items, session.ot, session.rng, GarblingScheme::kHalfGates,
      ThreadPool::Global(), session.ot_pads);
  std::vector<int> classes(n);
  for (size_t i = 0; i < n; ++i) {
    classes[i] = DecodeClassIndex(outputs[i], setup.num_classes);
  }
  return classes;
}

EvaluatorDriver::EvaluatorDriver(SessionSetup setup)
    : setup_(std::move(setup)) {
  MakeSessionSpecs(setup_, setup_.plan_features, &nb_, &linear_);
}

EvaluatorDriver::~EvaluatorDriver() = default;

EvaluatorResult EvaluatorDriver::Run(Channel& channel,
                                     const std::vector<std::vector<int>>& rows,
                                     const EvaluatorSession& session) const {
  const size_t n = rows.size();
  const char* what = setup_.classifier == ClassifierKind::kForest
                         ? "secure forest"
                         : "secure tree";
  const Circuit* session_circuit = SessionCircuit(nb_.get(), linear_.get());
  const size_t session_gates =
      session_circuit != nullptr ? session_circuit->Stats().and_gates : 0;
  std::vector<CircuitPrelude> preludes;
  preludes.reserve(n);  // Items point into it: no reallocation.
  std::vector<size_t> prelude_gates;
  std::vector<std::vector<int>> seen;
  std::vector<BitVec> evaluator_bits(n);
  std::vector<GcEvalItem> items(n);
  BitVec choices;
  EvaluatorResult result;
  for (size_t i = 0; i < n; ++i) {
    if (session_circuit != nullptr) {
      obs::TraceSpan encode("smc.encode");
      if (nb_ != nullptr) {
        evaluator_bits[i] = nb_->EncodeRow(rows[i]);
      } else {
        BitVec record = linear_->Choices(rows[i]);
        for (size_t j = 0; j < record.size(); ++j) {
          choices.PushBack(record.Get(j));
        }
      }
      items[i] = {session_circuit, &evaluator_bits[i]};
      result.and_gates += session_gates;
      continue;
    }
    std::vector<int> key;
    key.reserve(setup_.plan_features.size());
    for (int f : setup_.plan_features) key.push_back(rows[i][f]);
    size_t k = std::find(seen.begin(), seen.end(), key) - seen.begin();
    if (k == seen.size()) {
      seen.push_back(std::move(key));
      preludes.push_back(RecvCircuitPrelude(channel, setup_.features, what));
      prelude_gates.push_back(preludes.back().circuit.Stats().and_gates);
    }
    {
      obs::TraceSpan encode("smc.encode");
      evaluator_bits[i] = preludes[k].layout.EncodeRow(rows[i]);
    }
    items[i] = {&preludes[k].circuit, &evaluator_bits[i]};
    result.and_gates += prelude_gates[k];
  }
  if (linear_ != nullptr) {
    std::vector<Block> received;
    if (choices.size() > 0) {
      received = PooledOtRecv(channel, session.ot, choices, session.ot_pads);
    }
    const size_t per_record = linear_->NumProductOts();
    for (size_t i = 0; i < n; ++i) {
      evaluator_bits[i] = linear_->EvaluatorBits(std::vector<Block>(
          received.begin() + i * per_record,
          received.begin() + (i + 1) * per_record));
    }
  }
  std::vector<BitVec> outputs = GcRunEvaluatorBatch(
      channel, items, session.ot, GarblingScheme::kHalfGates,
      ThreadPool::Global(), session.ot_pads);
  result.classes.resize(n);
  for (size_t i = 0; i < n; ++i) {
    result.classes[i] = DecodeClassIndex(outputs[i], setup_.num_classes);
  }
  return result;
}

}  // namespace pafs::serve
