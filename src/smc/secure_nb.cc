#include "smc/secure_nb.h"

#include "circuit/builder.h"
#include "util/check.h"

namespace pafs {

namespace {

// Garbler input order: [bias_c for each class][table entries, ordered by
// hidden feature, then value, then class], each kSmcScoreBits wide.
uint32_t GarblerBitCount(const HiddenLayout& layout, int num_classes) {
  uint32_t entries = 0;
  for (int h = 0; h < layout.num_hidden(); ++h) {
    entries += layout.cardinality(h) * num_classes;
  }
  return (num_classes + entries) * kSmcScoreBits;
}

}  // namespace

SecureNbCircuit::SecureNbCircuit(const std::vector<FeatureSpec>& features,
                                 int num_classes,
                                 const std::map<int, int>& disclosed)
    : layout_(HiddenLayout::Make(features, disclosed)),
      num_classes_(num_classes),
      index_bits_(static_cast<uint32_t>(BitsFor(num_classes))),
      circuit_([this] {
        CircuitBuilder b(GarblerBitCount(layout_, num_classes_),
                         layout_.total_value_bits());
        uint32_t garbler_cursor = 0;
        // Per-class scores start at the folded bias.
        std::vector<CircuitBuilder::Word> scores(num_classes_);
        for (int c = 0; c < num_classes_; ++c) {
          scores[c] = b.GarblerWord(garbler_cursor, kSmcScoreBits);
          garbler_cursor += kSmcScoreBits;
        }
        // Add the mux-selected table entry for every hidden feature.
        for (int h = 0; h < layout_.num_hidden(); ++h) {
          auto selector = b.EvaluatorWord(layout_.bit_offset(h),
                                          layout_.value_bits(h));
          for (int c = 0; c < num_classes_; ++c) {
            std::vector<CircuitBuilder::Word> table(layout_.cardinality(h));
            for (int v = 0; v < layout_.cardinality(h); ++v) {
              // Entry order matches EncodeModel: value-major, then class.
              table[v] = b.GarblerWord(
                  garbler_cursor + (static_cast<uint32_t>(v) * num_classes_ + c) *
                                       kSmcScoreBits,
                  kSmcScoreBits);
            }
            scores[c] = b.AddW(scores[c], b.MuxTree(selector, table));
          }
          garbler_cursor += static_cast<uint32_t>(layout_.cardinality(h)) *
                            num_classes_ * kSmcScoreBits;
        }
        auto [index, value] = b.ArgMaxSigned(scores);
        (void)value;
        // Pad/trim index to a fixed width both parties know.
        CircuitBuilder::Word out = index;
        while (out.size() < index_bits_) out.push_back(b.ConstZero());
        out.resize(index_bits_);
        b.AddOutputWord(out);
        return b.Build();
      }()) {}

BitVec SecureNbCircuit::EncodeModel(const NaiveBayes& model,
                                    const std::map<int, int>& disclosed) const {
  PAFS_CHECK_EQ(model.num_classes(), num_classes_);
  BitVec bits(0);
  std::vector<int64_t> priors = model.FixedPriors(kSmcScale);
  auto tables = model.FixedLikelihoods(kSmcScale);
  // Folded bias: prior + disclosed features' contributions.
  for (int c = 0; c < num_classes_; ++c) {
    int64_t bias = priors[c];
    for (const auto& [feature, value] : disclosed) {
      bias += tables[feature][value][c];
    }
    AppendSigned(bits, bias, kSmcScoreBits);
  }
  for (int h = 0; h < layout_.num_hidden(); ++h) {
    int f = layout_.hidden_features()[h];
    for (int v = 0; v < layout_.cardinality(h); ++v) {
      for (int c = 0; c < num_classes_; ++c) {
        AppendSigned(bits, tables[f][v][c], kSmcScoreBits);
      }
    }
  }
  PAFS_CHECK_EQ(bits.size(), circuit_.garbler_inputs());
  return bits;
}

int SecureNbCircuit::DecodeOutput(const BitVec& output) const {
  PAFS_CHECK_EQ(output.size(), index_bits_);
  int c = static_cast<int>(output.ToU64(0, index_bits_));
  PAFS_CHECK_LT(c, num_classes_);
  return c;
}

}  // namespace pafs
