#include "smc/cost_model.h"

#include "crypto/paillier.h"
#include "crypto/prg.h"
#include "smc/secure_linear.h"
#include "smc/secure_forest.h"
#include "smc/secure_nb.h"
#include "smc/secure_tree.h"
#include "util/check.h"
#include "util/random.h"
#include "util/timer.h"

namespace pafs {

namespace {

// Disclosure sets carry no values for NB/linear cost purposes; expand a
// set into the value-0 map HiddenLayout expects.
std::map<int, int> SetToMap(const std::set<int>& disclosed) {
  std::map<int, int> out;
  for (int f : disclosed) out.emplace(f, 0);
  return out;
}

// Wire bytes of a GC execution: two ciphertext blocks per AND gate, the
// garbler's active labels, and OT extension traffic (column bits + two
// masked blocks per transfer).
uint64_t GcBytes(const Circuit& circuit) {
  CircuitStats stats = circuit.Stats();
  uint64_t bytes = stats.and_gates * 32;
  bytes += static_cast<uint64_t>(circuit.garbler_inputs()) * 16;
  bytes += static_cast<uint64_t>(circuit.evaluator_inputs()) * (16 + 32);
  bytes += circuit.outputs().size() / 4 + 16;  // Decode bits + framing.
  return bytes;
}

}  // namespace

CostCalibration CostCalibration::Measure(int paillier_bits, Rng& rng) {
  CostCalibration cal;
  cal.paillier_bits = paillier_bits;

  // Hash throughput drives both garbling and OT extension costs.
  Timer timer;
  Block acc(1, 2);
  constexpr int kHashReps = 200000;
  for (int i = 0; i < kHashReps; ++i) acc = HashBlock(acc, i);
  // Prevent the loop from being optimized out.
  volatile uint64_t sink = acc.lo;
  (void)sink;
  double per_hash = timer.ElapsedSeconds() / kHashReps;
  cal.per_and_gate = 4 * per_hash;  // 2 garbling + 2 evaluation hashes.
  cal.per_ot = 6 * per_hash;        // PRG expansion + masking + transpose.

  PaillierKeyPair keys = GeneratePaillierKey(rng, paillier_bits);
  constexpr int kPailReps = 8;
  // Every op is timed serially, one at a time: a per-op cost is CPU time
  // per operation, whatever parallelism the host later provides.
  timer.Reset();
  BigInt ct;
  for (int i = 0; i < kPailReps; ++i) {
    ct = keys.public_key.Encrypt(BigInt(i), rng);
  }
  cal.per_pail_encrypt = timer.ElapsedSeconds() / kPailReps;
  timer.Reset();
  BigInt scaled = ct;
  for (int i = 0; i < kPailReps * 4; ++i) {
    scaled = keys.public_key.Add(
        scaled, keys.public_key.MulPlain(ct, BigInt(12345)));
  }
  cal.per_pail_scalar = timer.ElapsedSeconds() / (kPailReps * 4);
  timer.Reset();
  for (int i = 0; i < kPailReps; ++i) {
    keys.private_key.Decrypt(ct);
  }
  cal.per_pail_decrypt = timer.ElapsedSeconds() / kPailReps;
  return cal;
}

double CostEstimate::ComputeSeconds(const CostCalibration& cal) const {
  return and_gates * cal.per_and_gate + ot_count * cal.per_ot +
         pail_encrypts * cal.per_pail_encrypt +
         pail_scalars * cal.per_pail_scalar +
         pail_decrypts * cal.per_pail_decrypt;
}

double CostEstimate::TotalSeconds(const CostCalibration& cal,
                                  const NetworkProfile& net) const {
  return ComputeSeconds(cal) + net.TransferSeconds(bytes, rounds);
}

SmcCostModel::SmcCostModel(std::vector<FeatureSpec> features, int num_classes,
                           CostCalibration calibration)
    : features_(std::move(features)),
      num_classes_(num_classes),
      calibration_(calibration) {}

CostEstimate SmcCostModel::EstimateNb(const std::set<int>& disclosed) const {
  SecureNbCircuit spec(features_, num_classes_, SetToMap(disclosed));
  CostEstimate est;
  est.and_gates = spec.circuit().Stats().and_gates;
  est.ot_count = spec.circuit().evaluator_inputs();
  est.bytes = GcBytes(spec.circuit());
  est.rounds = 4;
  return est;
}

CostEstimate SmcCostModel::EstimateLinear(
    const std::set<int>& disclosed) const {
  SecureLinearProtocol protocol(features_, num_classes_, SetToMap(disclosed));
  CostEstimate est;
  est.and_gates = protocol.argmax_circuit().Stats().and_gates;
  est.ot_count = protocol.argmax_circuit().evaluator_inputs();
  est.pail_encrypts = protocol.NumClientCiphertexts() +
                      num_classes_;  // Client one-hots + server rerandomize.
  est.pail_scalars =
      static_cast<size_t>(protocol.NumClientCiphertexts()) * num_classes_;
  est.pail_decrypts = num_classes_;
  uint64_t ct_bytes = static_cast<uint64_t>(calibration_.paillier_bits) / 4;
  est.bytes = GcBytes(protocol.argmax_circuit()) +
              (protocol.NumClientCiphertexts() + num_classes_) * ct_bytes;
  est.rounds = 6;
  return est;
}

CostEstimate SmcCostModel::EstimateTree(const DecisionTree& tree,
                                        const std::set<int>& disclosed,
                                        const Dataset& sample) const {
  PAFS_CHECK_GT(sample.size(), 0u);
  size_t rows = std::min(sample.size(), tree_sample_rows_);
  double gates = 0, ots = 0, bytes = 0;
  for (size_t i = 0; i < rows; ++i) {
    std::map<int, int> values;
    for (int f : disclosed) values.emplace(f, sample.row(i)[f]);
    DecisionTree specialized = tree.Specialize(values);
    SecureTreeCircuit spec(specialized, features_, num_classes_, values);
    gates += spec.circuit().Stats().and_gates;
    ots += spec.circuit().evaluator_inputs();
    // Trees also ship the (value-dependent) circuit description itself.
    bytes += GcBytes(spec.circuit()) + 9.0 * spec.circuit().gates().size();
  }
  CostEstimate est;
  est.and_gates = static_cast<size_t>(gates / rows);
  est.ot_count = static_cast<size_t>(ots / rows);
  est.bytes = static_cast<uint64_t>(bytes / rows);
  est.rounds = 4;
  return est;
}

CostEstimate SmcCostModel::EstimateForest(const RandomForest& forest,
                                          const std::set<int>& disclosed,
                                          const Dataset& sample) const {
  PAFS_CHECK_GT(sample.size(), 0u);
  // Forest circuits are ~num_trees x heavier to construct; sample fewer
  // rows for the same estimation budget.
  size_t rows = std::max<size_t>(
      1, std::min(sample.size(),
                  tree_sample_rows_ / std::max(1, forest.num_trees() / 3)));
  double gates = 0, ots = 0, bytes = 0;
  for (size_t i = 0; i < rows; ++i) {
    std::map<int, int> values;
    for (int f : disclosed) values.emplace(f, sample.row(i)[f]);
    RandomForest specialized = forest.Specialize(values);
    SecureForestCircuit spec(specialized, features_, num_classes_, values);
    gates += spec.circuit().Stats().and_gates;
    ots += spec.circuit().evaluator_inputs();
    bytes += GcBytes(spec.circuit()) + 9.0 * spec.circuit().gates().size();
  }
  CostEstimate est;
  est.and_gates = static_cast<size_t>(gates / rows);
  est.ot_count = static_cast<size_t>(ots / rows);
  est.bytes = static_cast<uint64_t>(bytes / rows);
  est.rounds = 4;
  return est;
}

}  // namespace pafs
