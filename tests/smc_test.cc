// Tests for the secure classifiers: each protocol must agree with its
// plaintext model on every tested row, under any disclosure set, and
// disclosure must shrink the protocol cost.
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "crypto/paillier.h"
#include "crypto/paillier_pool.h"
#include "data/warfarin_gen.h"
#include "ml/decision_tree.h"
#include "ml/linear_model.h"
#include "ml/naive_bayes.h"
#include "net/channel.h"
#include "ot/iknp.h"
#include "serve/engine.h"
#include "serve/model.h"
#include "smc/cost_model.h"
#include "smc/secure_linear.h"
#include "smc/secure_linear_aby.h"
#include "smc/secure_nb.h"
#include "smc/secure_tree.h"
#include "util/random.h"

namespace pafs {
namespace {

class SmcTest : public ::testing::Test {
 protected:
  SmcTest() : rng_(1234), data_(GenerateWarfarinCohort(1200, rng_)) {
    nb_.Train(data_);
    tree_.Train(data_);
    linear_.Train(data_, LinearTrainParams());
  }

  std::map<int, int> DiscloseFor(const std::vector<int>& row,
                                 const std::vector<int>& features) {
    std::map<int, int> out;
    for (int f : features) out[f] = row[f];
    return out;
  }

  serve::ServingModel ModelFor(ClassifierKind kind,
                               std::vector<int> plan) const {
    serve::ServingModel model;
    model.setup.features = data_.features();
    model.setup.num_classes = data_.num_classes();
    model.setup.classifier = kind;
    model.setup.plan_features = std::move(plan);
    model.nb = nb_;
    model.tree = tree_;
    model.linear = linear_;
    return model;
  }

  // One secure classification of `row` through the serving protocol
  // drivers, both parties in this process over the fixture's channel and
  // OT session (opened by SetUpOt). Only the evaluator learns the class.
  serve::EvaluatorResult RunDrivers(const serve::ServingModel& model,
                                    const std::vector<int>& row) {
    serve::GarblerDriver garbler(model, model.setup.plan_features);
    serve::EvaluatorDriver evaluator(model.setup);
    serve::SpecMap specs;
    std::vector<int> key;
    for (int f : model.setup.plan_features) key.push_back(row[f]);
    std::thread server([&] {
      garbler.Run(channel_.endpoint(0), {key},
                  serve::GarblerSession{ot_sender_, server_rng_, specs});
    });
    serve::EvaluatorResult result =
        evaluator.Run(channel_.endpoint(1), {row},
                      serve::EvaluatorSession{ot_receiver_});
    server.join();
    return result;
  }

  // Opens the fixture's OT session: both parties' base OTs, concurrently.
  // Every protocol run takes its OT endpoints already set up.
  void SetUpOt() {
    std::thread peer(
        [&] { ot_sender_.Setup(channel_.endpoint(0), server_rng_); });
    ot_receiver_.Setup(channel_.endpoint(1), client_rng_);
    peer.join();
  }

  Rng rng_;
  Dataset data_;
  NaiveBayes nb_;
  DecisionTree tree_;
  LinearModel linear_;
  MemChannelPair channel_;
  OtExtSender ot_sender_;
  OtExtReceiver ot_receiver_;
  Rng server_rng_{42}, client_rng_{43};
};

TEST_F(SmcTest, CommonHelpers) {
  EXPECT_EQ(BitsFor(2), 1);
  EXPECT_EQ(BitsFor(3), 2);
  EXPECT_EQ(BitsFor(4), 2);
  EXPECT_EQ(BitsFor(9), 4);

  BitVec bits(0);
  AppendSigned(bits, -5, 8);
  AppendSigned(bits, 100, 8);
  EXPECT_EQ(DecodeSigned(bits, 0, 8), -5);
  EXPECT_EQ(DecodeSigned(bits, 8, 8), 100);
}

TEST_F(SmcTest, HiddenLayoutSkipsDisclosed) {
  std::map<int, int> disclosed = {{WarfarinSchema::kRace, 1},
                                  {WarfarinSchema::kAge, 3}};
  HiddenLayout layout = HiddenLayout::Make(data_.features(), disclosed);
  EXPECT_EQ(layout.num_hidden(), WarfarinSchema::kNumFeatures - 2);
  for (int h = 0; h < layout.num_hidden(); ++h) {
    EXPECT_NE(layout.hidden_features()[h], WarfarinSchema::kRace);
    EXPECT_NE(layout.hidden_features()[h], WarfarinSchema::kAge);
  }
  // Encoding round-trips per feature.
  const std::vector<int>& row = data_.row(0);
  BitVec bits = layout.EncodeRow(row);
  for (int h = 0; h < layout.num_hidden(); ++h) {
    EXPECT_EQ(
        static_cast<int>(bits.ToU64(layout.bit_offset(h), layout.value_bits(h))),
        row[layout.hidden_features()[h]]);
  }
}

TEST_F(SmcTest, SecureNbMatchesPlaintextNoDisclosure) {
  SetUpOt();
  serve::ServingModel model = ModelFor(ClassifierKind::kNaiveBayes, {});
  for (size_t i = 0; i < 12; ++i) {
    const std::vector<int>& row = data_.row(i * 37);
    serve::EvaluatorResult result = RunDrivers(model, row);
    EXPECT_EQ(result.classes[0], nb_.Predict(row)) << "row " << i;
  }
}

TEST_F(SmcTest, SecureNbMatchesPlaintextWithDisclosure) {
  SetUpOt();
  serve::ServingModel model =
      ModelFor(ClassifierKind::kNaiveBayes,
               {WarfarinSchema::kRace, WarfarinSchema::kAge,
                WarfarinSchema::kWeight});
  for (size_t i = 0; i < 10; ++i) {
    const std::vector<int>& row = data_.row(i * 53);
    serve::EvaluatorResult result = RunDrivers(model, row);
    EXPECT_EQ(result.classes[0], nb_.Predict(row)) << "row " << i;
  }
}

TEST_F(SmcTest, SecureNbDisclosureShrinksCircuit) {
  SecureNbCircuit full(data_.features(), data_.num_classes(), {});
  std::map<int, int> disclosed = {{WarfarinSchema::kAge, 4},
                                  {WarfarinSchema::kRace, 0},
                                  {WarfarinSchema::kWeight, 1},
                                  {WarfarinSchema::kHeight, 2}};
  SecureNbCircuit partial(data_.features(), data_.num_classes(), disclosed);
  EXPECT_LT(partial.circuit().Stats().and_gates,
            full.circuit().Stats().and_gates);
  EXPECT_LT(partial.circuit().evaluator_inputs(),
            full.circuit().evaluator_inputs());
}

TEST_F(SmcTest, SecureTreeMatchesPlaintext) {
  SetUpOt();
  serve::ServingModel model = ModelFor(ClassifierKind::kDecisionTree, {});
  for (size_t i = 0; i < 10; ++i) {
    const std::vector<int>& row = data_.row(i * 61);
    serve::EvaluatorResult result = RunDrivers(model, row);
    EXPECT_EQ(result.classes[0], tree_.Predict(row)) << "row " << i;
  }
}

TEST_F(SmcTest, SecureTreeWithSpecialization) {
  SetUpOt();
  serve::ServingModel model =
      ModelFor(ClassifierKind::kDecisionTree,
               {WarfarinSchema::kRace, WarfarinSchema::kAge,
                WarfarinSchema::kAmiodarone});
  for (size_t i = 0; i < 10; ++i) {
    const std::vector<int>& row = data_.row(i * 79);
    serve::EvaluatorResult result = RunDrivers(model, row);
    EXPECT_EQ(result.classes[0], tree_.Predict(row)) << "row " << i;
  }
}

TEST_F(SmcTest, SecureTreeFullDisclosureOfUsedFeatures) {
  // Disclosing every feature the tree tests leaves a single-leaf circuit.
  SetUpOt();
  const std::vector<int>& row = data_.row(7);
  std::map<int, int> disclosed = DiscloseFor(row, tree_.UsedFeatures());
  DecisionTree specialized = tree_.Specialize(disclosed);
  EXPECT_EQ(specialized.NumNodes(), 1u);
  SecureTreeCircuit spec(specialized, data_.features(), data_.num_classes(),
                         disclosed);
  EXPECT_EQ(spec.circuit().evaluator_inputs(), 0u);
  serve::EvaluatorResult result = RunDrivers(
      ModelFor(ClassifierKind::kDecisionTree, tree_.UsedFeatures()), row);
  EXPECT_EQ(result.classes[0], tree_.Predict(row));
  EXPECT_EQ(result.and_gates, spec.circuit().Stats().and_gates);
}

TEST_F(SmcTest, SecureLinearMatchesPlaintext) {
  SetUpOt();
  Rng key_rng(9);
  PaillierKeyPair keys = GeneratePaillierKey(key_rng, 256);
  SecureLinearProtocol protocol(data_.features(), data_.num_classes(), {});
  int fixed_point_flips = 0;
  for (size_t i = 0; i < 6; ++i) {
    const std::vector<int>& row = data_.row(i * 97);
    SmcRunStats server_stats, client_stats;
    std::thread server([&] {
      server_stats = protocol.RunServer(channel_.endpoint(0), linear_, {},
                                        ot_sender_, server_rng_);
    });
    client_stats = protocol.RunClient(channel_.endpoint(1), keys, row,
                                      ot_receiver_, client_rng_);
    server.join();
    EXPECT_EQ(server_stats.predicted_class, -1);  // Only the client decodes.
    if (client_stats.predicted_class != linear_.Predict(row)) {
      ++fixed_point_flips;  // Allowed only on near-ties from quantization.
    }
  }
  EXPECT_LE(fixed_point_flips, 1);
}

TEST_F(SmcTest, SecureLinearPooledMatchesUnpooledAndPlaintext) {
  // The offline/online split at protocol level: both ends draw their
  // Paillier randomness from precomputed pad pools. The pooled run must
  // agree with the plaintext model exactly like the unpooled path, and
  // every pad must actually come from the pools (all hits, no misses).
  SetUpOt();
  Rng key_rng(11);
  PaillierKeyPair keys = GeneratePaillierKey(key_rng, 256);
  SecureLinearProtocol protocol(data_.features(), data_.num_classes(), {});

  Rng server_fill_rng(71);
  std::shared_ptr<PaillierPadPool> server_pool;
  PaillierPoolFn pool_for = [&](const BigInt& n) {
    if (server_pool == nullptr || !server_pool->MatchesModulus(n)) {
      server_pool = std::make_shared<PaillierPadPool>(
          PaillierPublicKey(n), 2u * data_.num_classes());
      server_pool->Refill(server_fill_rng, 2u * data_.num_classes());
    }
    return server_pool;
  };
  size_t client_pads = static_cast<size_t>(protocol.NumClientCiphertexts());
  PaillierPadPool client_pool(keys.public_key, client_pads);
  Rng client_fill_rng(72);
  client_pool.Refill(client_fill_rng, client_pads);

  const std::vector<int>& row = data_.row(333);
  // Unpooled baseline on the same row: masks cancel exactly inside the
  // argmax circuit, so the predicted class is a deterministic function of
  // (row, model) that the pooled run must reproduce.
  SmcRunStats base_stats;
  {
    std::thread server([&] {
      protocol.RunServer(channel_.endpoint(0), linear_, {}, ot_sender_,
                         server_rng_);
    });
    base_stats = protocol.RunClient(channel_.endpoint(1), keys, row,
                                    ot_receiver_, client_rng_);
    server.join();
  }

  SmcRunStats server_stats, client_stats;
  std::thread server([&] {
    server_stats = protocol.RunServer(channel_.endpoint(0), linear_, {},
                                      ot_sender_, server_rng_, pool_for);
  });
  client_stats = protocol.RunClient(channel_.endpoint(1), keys, row,
                                    ot_receiver_, client_rng_, &client_pool);
  server.join();

  EXPECT_EQ(server_stats.predicted_class, -1);  // Only the client decodes.
  EXPECT_EQ(client_stats.predicted_class, base_stats.predicted_class);
  EXPECT_EQ(client_pool.stats().hits, static_cast<uint64_t>(client_pads));
  EXPECT_EQ(client_pool.stats().misses, 0u);
  ASSERT_NE(server_pool, nullptr);
  // Server spends one encrypt pad + one rerandomize pad per class.
  EXPECT_EQ(server_pool->stats().hits,
            2u * static_cast<uint64_t>(data_.num_classes()));
  EXPECT_EQ(server_pool->stats().misses, 0u);
}

TEST_F(SmcTest, SecureLinearServerRejectsBadModulus) {
  // The announced modulus is untrusted wire data: an even or undersized n
  // must fail the query as a ProtocolError before any key/pool state is
  // built from it — not abort the process inside MontgomeryCtx.
  SecureLinearProtocol protocol(data_.features(), data_.num_classes(), {});
  Rng key_rng(12);
  PaillierKeyPair keys = GeneratePaillierKey(key_rng, 256);

  BigInt even_n = keys.public_key.n() + BigInt(1);  // n odd, so n+1 even.
  channel_.endpoint(1).SendBigInt(even_n);
  EXPECT_THROW(protocol.RunServer(channel_.endpoint(0), linear_, {},
                                  ot_sender_, server_rng_),
               ProtocolError);

  channel_.endpoint(1).SendBigInt(BigInt(12345));  // Odd but tiny.
  EXPECT_THROW(protocol.RunServer(channel_.endpoint(0), linear_, {},
                                  ot_sender_, server_rng_),
               ProtocolError);
}

TEST_F(SmcTest, SecureLinearWithDisclosure) {
  SetUpOt();
  Rng key_rng(10);
  PaillierKeyPair keys = GeneratePaillierKey(key_rng, 256);
  std::vector<int> disclosure = {WarfarinSchema::kAge, WarfarinSchema::kRace,
                                 WarfarinSchema::kWeight,
                                 WarfarinSchema::kHeight,
                                 WarfarinSchema::kGender};
  for (size_t i = 0; i < 5; ++i) {
    const std::vector<int>& row = data_.row(i * 111);
    std::map<int, int> disclosed = DiscloseFor(row, disclosure);
    SecureLinearProtocol protocol(data_.features(), data_.num_classes(),
                                  disclosed);
    SmcRunStats client_stats;
    std::thread server([&] {
      protocol.RunServer(channel_.endpoint(0), linear_, disclosed, ot_sender_,
                         server_rng_);
    });
    client_stats = protocol.RunClient(channel_.endpoint(1), keys, row,
                                      ot_receiver_, client_rng_);
    server.join();
    // Fixed-point argmax must match the fixed-point plaintext reference.
    auto w = linear_.FixedWeights(kSmcScale);
    auto b = linear_.FixedBias(kSmcScale);
    int64_t best_score = INT64_MIN;
    int expected = -1;
    for (int c = 0; c < data_.num_classes(); ++c) {
      int64_t score = b[c];
      for (int f = 0; f < data_.num_features(); ++f) {
        score += w[c][linear_.FeatureOffset(f) + row[f]];
      }
      if (score > best_score) {
        best_score = score;
        expected = c;
      }
    }
    EXPECT_EQ(client_stats.predicted_class, expected) << "row " << i;
  }
}

TEST_F(SmcTest, AbyLinearMatchesFixedPointPlaintext) {
  SetUpOt();
  serve::ServingModel model = ModelFor(ClassifierKind::kLinear, {});
  SecureLinearAbyProtocol protocol(data_.features(), data_.num_classes(), {});
  for (size_t i = 0; i < 8; ++i) {
    const std::vector<int>& row = data_.row(i * 83);
    serve::EvaluatorResult result = RunDrivers(model, row);
    EXPECT_EQ(result.and_gates,
              protocol.argmax_circuit().Stats().and_gates);
    // Exact fixed-point reference (shares reconstruct exactly).
    auto w = linear_.FixedWeights(kSmcScale);
    auto b = linear_.FixedBias(kSmcScale);
    int64_t best_score = INT64_MIN;
    int expected = -1;
    for (int c = 0; c < data_.num_classes(); ++c) {
      int64_t score = b[c];
      for (int f = 0; f < data_.num_features(); ++f) {
        score += w[c][linear_.FeatureOffset(f) + row[f]];
      }
      if (score > best_score) {
        best_score = score;
        expected = c;
      }
    }
    EXPECT_EQ(result.classes[0], expected) << "row " << i;
  }
}

TEST_F(SmcTest, AbyLinearWithDisclosureAgreesWithPaillierHybrid) {
  Rng key_rng(77);
  PaillierKeyPair keys = GeneratePaillierKey(key_rng, 256);
  std::vector<int> disclosure = {WarfarinSchema::kAge, WarfarinSchema::kRace,
                                 WarfarinSchema::kWeight};
  SetUpOt();
  serve::ServingModel model = ModelFor(ClassifierKind::kLinear, disclosure);
  for (size_t i = 0; i < 4; ++i) {
    const std::vector<int>& row = data_.row(i * 139);
    std::map<int, int> disclosed = DiscloseFor(row, disclosure);
    SecureLinearProtocol paillier(data_.features(), data_.num_classes(),
                                  disclosed);
    serve::EvaluatorResult aby = RunDrivers(model, row);
    SmcRunStats pail_client;
    std::thread server([&] {
      paillier.RunServer(channel_.endpoint(0), linear_, disclosed, ot_sender_,
                         server_rng_);
    });
    pail_client = paillier.RunClient(channel_.endpoint(1), keys, row,
                                     ot_receiver_, client_rng_);
    server.join();
    EXPECT_EQ(aby.classes[0], pail_client.predicted_class) << "row " << i;
  }
}

TEST_F(SmcTest, AbyLinearOtCountScalesWithHiddenSlots) {
  SecureLinearAbyProtocol full(data_.features(), data_.num_classes(), {});
  std::map<int, int> disclosed = {{WarfarinSchema::kAge, 0},
                                  {WarfarinSchema::kRace, 0}};
  SecureLinearAbyProtocol partial(data_.features(), data_.num_classes(),
                                  disclosed);
  EXPECT_EQ(full.NumProductOts() - partial.NumProductOts(),
            (9 + 4) * data_.num_classes());
}

TEST_F(SmcTest, SecureLinearDisclosureReducesCiphertexts) {
  SecureLinearProtocol full(data_.features(), data_.num_classes(), {});
  std::map<int, int> disclosed = {{WarfarinSchema::kAge, 0},
                                  {WarfarinSchema::kRace, 0}};
  SecureLinearProtocol partial(data_.features(), data_.num_classes(),
                               disclosed);
  EXPECT_EQ(full.NumClientCiphertexts() - partial.NumClientCiphertexts(),
            9 + 4);  // Age (9 values) + race (4 values) one-hots vanish.
}

TEST_F(SmcTest, CostModelMatchesActualNbCircuit) {
  CostCalibration cal;
  SmcCostModel model(data_.features(), data_.num_classes(), cal);
  for (const std::set<int>& disclosed :
       {std::set<int>{}, std::set<int>{WarfarinSchema::kAge},
        std::set<int>{WarfarinSchema::kAge, WarfarinSchema::kRace}}) {
    std::map<int, int> as_map;
    for (int f : disclosed) as_map[f] = 0;
    SecureNbCircuit spec(data_.features(), data_.num_classes(), as_map);
    CostEstimate est = model.EstimateNb(disclosed);
    EXPECT_EQ(est.and_gates, spec.circuit().Stats().and_gates);
    EXPECT_EQ(est.ot_count, spec.circuit().evaluator_inputs());
  }
}

TEST_F(SmcTest, CostModelMonotoneInDisclosure) {
  CostCalibration cal;
  SmcCostModel model(data_.features(), data_.num_classes(), cal);
  std::set<int> disclosed;
  double last_nb = model.EstimateNb(disclosed).ComputeSeconds(cal);
  double last_lin = model.EstimateLinear(disclosed).ComputeSeconds(cal);
  double last_tree =
      model.EstimateTree(tree_, disclosed, data_).ComputeSeconds(cal);
  for (int f : data_.PublicCandidateFeatures()) {
    disclosed.insert(f);
    double nb = model.EstimateNb(disclosed).ComputeSeconds(cal);
    double lin = model.EstimateLinear(disclosed).ComputeSeconds(cal);
    double tr = model.EstimateTree(tree_, disclosed, data_).ComputeSeconds(cal);
    EXPECT_LE(nb, last_nb + 1e-12);
    EXPECT_LE(lin, last_lin + 1e-12);
    EXPECT_LE(tr, last_tree + 1e-9);
    last_nb = nb;
    last_lin = lin;
    last_tree = tr;
  }
}

TEST_F(SmcTest, CalibrationMeasurementIsSane) {
  Rng rng(5);
  // 256-bit modulus: large enough that encrypt's n-sized exponent clearly
  // dominates the scalar op's short exponent even under sanitizer skew
  // (at 128 bits the two are close and the comparison is flaky).
  CostCalibration cal = CostCalibration::Measure(256, rng);
  EXPECT_GT(cal.per_and_gate, 0);
  EXPECT_LT(cal.per_and_gate, 1e-4);
  EXPECT_GT(cal.per_pail_encrypt, cal.per_pail_scalar);
}

}  // namespace
}  // namespace pafs
