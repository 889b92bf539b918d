// Secure random-forest evaluation: every member tree evaluates obliviously
// (same construction as secure_tree), the label words turn into one-hot
// votes, counters accumulate per class, and an argmax picks the winner —
// all inside one garbled circuit, so nothing about individual trees' votes
// leaks. Specialization prunes each member tree independently.
#ifndef PAFS_SMC_SECURE_FOREST_H_
#define PAFS_SMC_SECURE_FOREST_H_

#include <map>

#include "circuit/circuit.h"
#include "ml/random_forest.h"
#include "smc/common.h"

namespace pafs {

class SecureForestCircuit {
 public:
  // `forest` must already be specialized on the disclosed features.
  SecureForestCircuit(const RandomForest& forest,
                      const std::vector<FeatureSpec>& features,
                      int num_classes, const std::map<int, int>& disclosed);

  const Circuit& circuit() const { return circuit_; }
  const HiddenLayout& layout() const { return layout_; }
  size_t total_leaves() const { return total_leaves_; }

  BitVec EncodeModel(const RandomForest& forest) const;
  BitVec EncodeRow(const std::vector<int>& row) const {
    return layout_.EncodeRow(row);
  }
  int DecodeOutput(const BitVec& output) const;

 private:
  HiddenLayout layout_;
  int num_classes_;
  uint32_t label_bits_;
  uint32_t index_bits_;
  size_t total_leaves_ = 0;
  Circuit circuit_;
};

}  // namespace pafs

#endif  // PAFS_SMC_SECURE_FOREST_H_
