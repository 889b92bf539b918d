#include "smc/secure_forest.h"

#include <algorithm>

#include "circuit/builder.h"
#include "circuit/optimizer.h"
#include "smc/secure_tree.h"
#include "util/check.h"

namespace pafs {

SecureForestCircuit::SecureForestCircuit(
    const RandomForest& forest, const std::vector<FeatureSpec>& features,
    int num_classes, const std::map<int, int>& disclosed)
    : num_classes_(num_classes),
      label_bits_(static_cast<uint32_t>(BitsFor(num_classes))),
      index_bits_(static_cast<uint32_t>(BitsFor(num_classes))) {
  PAFS_CHECK(forest.trained());
  std::vector<int> used = forest.UsedFeatures();
  for (int f : used) {
    PAFS_CHECK_MSG(!disclosed.count(f),
                   "forest must be specialized before building the circuit");
  }
  std::map<int, int> layout_exclusions = disclosed;
  for (int f = 0; f < static_cast<int>(features.size()); ++f) {
    if (std::find(used.begin(), used.end(), f) == used.end()) {
      layout_exclusions.emplace(f, 0);
    }
  }
  layout_ = HiddenLayout::Make(features, layout_exclusions);

  for (int t = 0; t < forest.num_trees(); ++t) {
    total_leaves_ += internal_secure_tree::CountLeaves(forest.tree(t));
  }

  CircuitBuilder b(static_cast<uint32_t>(total_leaves_) * label_bits_,
                   layout_.total_value_bits());

  // Vote counters: enough bits for num_trees votes, plus one so the
  // counts stay non-negative under the signed argmax.
  uint32_t counter_bits = 1;
  while ((1u << counter_bits) < static_cast<uint32_t>(forest.num_trees()) + 1) {
    ++counter_bits;
  }
  ++counter_bits;
  std::vector<CircuitBuilder::Word> counts(
      num_classes_, b.ConstantWord(0, counter_bits));

  uint32_t garbler_cursor = 0;
  for (int t = 0; t < forest.num_trees(); ++t) {
    std::vector<uint32_t> label_word = internal_secure_tree::AppendTreeCircuit(
        b, forest.tree(t), layout_, garbler_cursor, label_bits_);
    garbler_cursor += static_cast<uint32_t>(internal_secure_tree::CountLeaves(
                          forest.tree(t))) *
                      label_bits_;
    // One-hot the vote and add it to each class counter.
    for (int c = 0; c < num_classes_; ++c) {
      CircuitBuilder::Wire vote = b.EqualConst(label_word, c);
      CircuitBuilder::Word vote_word =
          b.ZeroExtend(CircuitBuilder::Word{vote}, counter_bits);
      counts[c] = b.AddW(counts[c], vote_word);
    }
  }

  auto [index, value] = b.ArgMaxSigned(counts);
  (void)value;
  CircuitBuilder::Word out = index;
  while (out.size() < index_bits_) out.push_back(b.ConstZero());
  out.resize(index_bits_);
  b.AddOutputWord(out);
  // CSE pays double here: equality tests repeat across sibling paths AND
  // across member trees that test the same features.
  circuit_ = OptimizeCircuit(b.Build());
}

BitVec SecureForestCircuit::EncodeModel(const RandomForest& forest) const {
  BitVec bits(0);
  for (int t = 0; t < forest.num_trees(); ++t) {
    internal_secure_tree::EncodeTreeLeaves(forest.tree(t), label_bits_, bits);
  }
  PAFS_CHECK_EQ(bits.size(), circuit_.garbler_inputs());
  return bits;
}

int SecureForestCircuit::DecodeOutput(const BitVec& output) const {
  PAFS_CHECK_EQ(output.size(), index_bits_);
  int c = static_cast<int>(output.ToU64(0, index_bits_));
  PAFS_CHECK_LT(c, num_classes_);
  return c;
}

}  // namespace pafs
