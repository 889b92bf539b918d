#include "smc/secure_linear_aby.h"

#include "circuit/builder.h"
#include "smc/secure_linear.h"
#include "util/check.h"
#include "util/random.h"

namespace pafs {

SecureLinearAbyProtocol::SecureLinearAbyProtocol(
    const std::vector<FeatureSpec>& features, int num_classes,
    const std::map<int, int>& disclosed)
    : layout_(HiddenLayout::Make(features, disclosed)),
      num_classes_(num_classes),
      index_bits_(static_cast<uint32_t>(BitsFor(num_classes))),
      circuit_([this] {
        // Reconstruct each score from its two additive shares, then argmax.
        CircuitBuilder b(num_classes_ * kLinearScoreBits,
                         num_classes_ * kLinearScoreBits);
        std::vector<CircuitBuilder::Word> scores(num_classes_);
        for (int c = 0; c < num_classes_; ++c) {
          auto server_share =
              b.GarblerWord(c * kLinearScoreBits, kLinearScoreBits);
          auto client_share =
              b.EvaluatorWord(c * kLinearScoreBits, kLinearScoreBits);
          scores[c] = b.AddW(server_share, client_share);
        }
        auto [index, value] = b.ArgMaxSigned(scores);
        (void)value;
        CircuitBuilder::Word out = index;
        while (out.size() < index_bits_) out.push_back(b.ConstZero());
        out.resize(index_bits_);
        b.AddOutputWord(out);
        return b.Build();
      }()) {}

int SecureLinearAbyProtocol::NumProductOts() const {
  int slots = 0;
  for (int h = 0; h < layout_.num_hidden(); ++h) {
    slots += layout_.cardinality(h);
  }
  return slots * num_classes_;
}

std::vector<std::array<Block, 2>> SecureLinearAbyProtocol::ShareMessages(
    const LinearModel& model, const std::map<int, int>& disclosed, Rng& rng,
    BitVec* garbler_bits) const {
  auto fixed_weights = model.FixedWeights(kSmcScale);
  auto fixed_bias = model.FixedBias(kSmcScale);

  // One correlated OT (r, r + w) per (class, one-hot slot). The server's
  // share of score_c starts from the folded bias and subtracts every
  // correlation mask r (mod 2^32).
  std::vector<std::array<Block, 2>> messages;
  messages.reserve(NumProductOts());
  *garbler_bits = BitVec(0);
  for (int c = 0; c < num_classes_; ++c) {
    int64_t bias = fixed_bias[c];
    for (const auto& [feature, value] : disclosed) {
      bias += fixed_weights[c][model.FeatureOffset(feature) + value];
    }
    uint32_t share = static_cast<uint32_t>(bias);  // Two's complement.
    for (int h = 0; h < layout_.num_hidden(); ++h) {
      int f = layout_.hidden_features()[h];
      for (int v = 0; v < layout_.cardinality(h); ++v) {
        uint32_t w = static_cast<uint32_t>(
            fixed_weights[c][model.FeatureOffset(f) + v]);
        uint32_t r = static_cast<uint32_t>(rng.NextU64());
        messages.push_back({Block(r, 0), Block(r + w, 0)});
        share -= r;
      }
    }
    AppendSigned(*garbler_bits, static_cast<int32_t>(share), kLinearScoreBits);
  }
  return messages;
}

BitVec SecureLinearAbyProtocol::Choices(const std::vector<int>& row) const {
  // The one-hot indicators, repeated per class (matching the server's
  // message order).
  BitVec choices(0);
  for (int c = 0; c < num_classes_; ++c) {
    for (int h = 0; h < layout_.num_hidden(); ++h) {
      int value = row[layout_.hidden_features()[h]];
      for (int v = 0; v < layout_.cardinality(h); ++v) {
        choices.PushBack(v == value);
      }
    }
  }
  return choices;
}

BitVec SecureLinearAbyProtocol::EvaluatorBits(
    const std::vector<Block>& received) const {
  PAFS_CHECK_EQ(received.size(), static_cast<size_t>(NumProductOts()));
  const size_t slots = received.size() / num_classes_;
  BitVec evaluator_bits(0);
  size_t cursor = 0;
  for (int c = 0; c < num_classes_; ++c) {
    uint32_t share = 0;
    for (size_t s = 0; s < slots; ++s) {
      share += static_cast<uint32_t>(received[cursor++].lo);
    }
    AppendSigned(evaluator_bits, static_cast<int32_t>(share),
                 kLinearScoreBits);
  }
  return evaluator_bits;
}

}  // namespace pafs
