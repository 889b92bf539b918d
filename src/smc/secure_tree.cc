#include "smc/secure_tree.h"

#include <algorithm>

#include "circuit/builder.h"
#include "circuit/optimizer.h"
#include "util/check.h"

namespace pafs {

namespace {

// Leaves in DFS pre-order: the shared ordering for garbler inputs.
void CollectLeaves(const DecisionTree& tree, int node,
                   std::vector<int>* leaves) {
  const auto& n = tree.nodes()[node];
  if (n.is_leaf) {
    leaves->push_back(node);
    return;
  }
  for (int child : n.children) CollectLeaves(tree, child, leaves);
}

}  // namespace

namespace internal_secure_tree {

size_t CountLeaves(const DecisionTree& tree) {
  std::vector<int> leaves;
  CollectLeaves(tree, 0, &leaves);
  return leaves.size();
}

void EncodeTreeLeaves(const DecisionTree& tree, uint32_t label_bits,
                      BitVec& bits) {
  std::vector<int> leaves;
  CollectLeaves(tree, 0, &leaves);
  for (int leaf : leaves) {
    int label = tree.nodes()[leaf].prediction;
    for (uint32_t b = 0; b < label_bits; ++b) {
      bits.PushBack((label >> b) & 1);
    }
  }
}

std::vector<uint32_t> AppendTreeCircuit(CircuitBuilder& b,
                                        const DecisionTree& tree,
                                        const HiddenLayout& layout,
                                        uint32_t garbler_offset,
                                        uint32_t label_bits) {
  // Map feature id -> hidden index for selector lookup.
  std::map<int, int> hidden_index;
  for (int h = 0; h < layout.num_hidden(); ++h) {
    hidden_index[layout.hidden_features()[h]] = h;
  }

  // Output accumulators, one per label bit; XOR of (indicator AND bit)
  // over leaves. Exactly one indicator is true on any input.
  std::vector<CircuitBuilder::Wire> accumulators(label_bits, b.ConstZero());
  size_t leaf_cursor = 0;

  // DFS mirroring CollectLeaves. `indicator` is the conjunction of edge
  // tests from the root; kNoWire at the root avoids a wasted AND.
  constexpr uint32_t kNoWire = UINT32_MAX;
  auto visit = [&](auto&& self, int node, uint32_t indicator) -> void {
    const auto& n = tree.nodes()[node];
    if (n.is_leaf) {
      uint32_t base = garbler_offset +
                      static_cast<uint32_t>(leaf_cursor) * label_bits;
      for (uint32_t bit = 0; bit < label_bits; ++bit) {
        CircuitBuilder::Wire label_bit = b.GarblerInput(base + bit);
        CircuitBuilder::Wire term =
            indicator == kNoWire ? label_bit : b.And(indicator, label_bit);
        accumulators[bit] = b.Xor(accumulators[bit], term);
      }
      ++leaf_cursor;
      return;
    }
    auto it = hidden_index.find(n.feature);
    PAFS_CHECK(it != hidden_index.end());
    auto selector = b.EvaluatorWord(layout.bit_offset(it->second),
                                    layout.value_bits(it->second));
    for (size_t v = 0; v < n.children.size(); ++v) {
      CircuitBuilder::Wire edge = b.EqualConst(selector, v);
      CircuitBuilder::Wire child_ind =
          indicator == kNoWire ? edge : b.And(indicator, edge);
      self(self, n.children[v], child_ind);
    }
  };
  visit(visit, 0, kNoWire);
  return accumulators;
}

}  // namespace internal_secure_tree

SecureTreeCircuit::SecureTreeCircuit(const DecisionTree& tree,
                                     const std::vector<FeatureSpec>& features,
                                     int num_classes,
                                     const std::map<int, int>& disclosed)
    : num_classes_(num_classes),
      label_bits_(static_cast<uint32_t>(BitsFor(num_classes))) {
  PAFS_CHECK(tree.trained());
  // The evaluator only supplies features the (specialized) tree still
  // tests; everything else is structurally irrelevant.
  std::vector<int> used = tree.UsedFeatures();
  for (int f : used) {
    PAFS_CHECK_MSG(!disclosed.count(f),
                   "tree must be specialized before building the circuit");
  }
  std::map<int, int> layout_exclusions = disclosed;
  for (int f = 0; f < static_cast<int>(features.size()); ++f) {
    if (std::find(used.begin(), used.end(), f) == used.end()) {
      layout_exclusions.emplace(f, 0);
    }
  }
  layout_ = HiddenLayout::Make(features, layout_exclusions);
  num_leaves_ = internal_secure_tree::CountLeaves(tree);

  CircuitBuilder b(static_cast<uint32_t>(num_leaves_) * label_bits_,
                   layout_.total_value_bits());
  std::vector<uint32_t> label_word = internal_secure_tree::AppendTreeCircuit(
      b, tree, layout_, /*garbler_offset=*/0, label_bits_);
  for (uint32_t wire : label_word) b.AddOutput(wire);
  // Sibling paths repeat equality tests; CSE typically removes ~25% of
  // the AND gates. The server ships the optimized circuit, so both
  // parties automatically agree on it.
  circuit_ = OptimizeCircuit(b.Build());
}

BitVec SecureTreeCircuit::EncodeModel(const DecisionTree& tree) const {
  PAFS_CHECK_EQ(internal_secure_tree::CountLeaves(tree), num_leaves_);
  BitVec bits(0);
  internal_secure_tree::EncodeTreeLeaves(tree, label_bits_, bits);
  PAFS_CHECK_EQ(bits.size(), circuit_.garbler_inputs());
  return bits;
}

int SecureTreeCircuit::DecodeOutput(const BitVec& output) const {
  PAFS_CHECK_EQ(output.size(), label_bits_);
  int c = static_cast<int>(output.ToU64(0, label_bits_));
  PAFS_CHECK_LT(c, num_classes_);
  return c;
}

}  // namespace pafs
