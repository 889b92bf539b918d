// Secure decision-tree evaluation via garbled circuits.
//
// Following the 2016-era secure classification literature (e.g. Bost et
// al., NDSS 2015), the tree *topology* — node shape and which feature each
// node tests — is treated as public protocol structure, while the leaf
// labels are garbler-private inputs and the patient's feature values are
// evaluator-private inputs. (Hiding topology as well needs ORAM-grade
// machinery and does not change how cost scales with tree size, which is
// what the disclosure optimization exploits.)
//
// Circuit: one path indicator per leaf (an AND chain of equality tests
// against public branch values), and the output label as the XOR over
// leaves of indicator AND label-bit. Specializing the tree on disclosed
// features shrinks the leaf count — often to 1 — which is where the orders
// of magnitude come from.
#ifndef PAFS_SMC_SECURE_TREE_H_
#define PAFS_SMC_SECURE_TREE_H_

#include <map>

#include "circuit/circuit.h"
#include "ml/decision_tree.h"
#include "smc/common.h"

namespace pafs {

class CircuitBuilder;

namespace internal_secure_tree {

// Appends one tree's oblivious evaluation to `builder` and returns the
// wires of its label word. Leaf labels are garbler inputs starting at
// `garbler_offset`, DFS pre-order, `label_bits` wide each. Shared by the
// single-tree and random-forest circuits.
std::vector<uint32_t> AppendTreeCircuit(CircuitBuilder& builder,
                                        const DecisionTree& tree,
                                        const HiddenLayout& layout,
                                        uint32_t garbler_offset,
                                        uint32_t label_bits);

// Appends a tree's leaf labels (DFS pre-order) to `bits`.
void EncodeTreeLeaves(const DecisionTree& tree, uint32_t label_bits,
                      BitVec& bits);

// Number of leaves (= garbler-input groups) of a tree.
size_t CountLeaves(const DecisionTree& tree);

}  // namespace internal_secure_tree

class SecureTreeCircuit {
 public:
  // `tree` must already be specialized on the disclosed features (its
  // remaining tests must all be on hidden features).
  SecureTreeCircuit(const DecisionTree& tree,
                    const std::vector<FeatureSpec>& features, int num_classes,
                    const std::map<int, int>& disclosed);

  const Circuit& circuit() const { return circuit_; }
  const HiddenLayout& layout() const { return layout_; }
  size_t num_leaves() const { return num_leaves_; }

  // Garbler bits: the leaf labels in DFS order.
  BitVec EncodeModel(const DecisionTree& tree) const;
  BitVec EncodeRow(const std::vector<int>& row) const {
    return layout_.EncodeRow(row);
  }
  int DecodeOutput(const BitVec& output) const;

 private:
  HiddenLayout layout_;
  int num_classes_;
  uint32_t label_bits_;
  size_t num_leaves_;
  Circuit circuit_;
};

}  // namespace pafs

#endif  // PAFS_SMC_SECURE_TREE_H_
