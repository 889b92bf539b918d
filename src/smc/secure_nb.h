// Secure naive Bayes evaluation via garbled circuits.
//
// The server holds the trained model; the client holds the patient row.
// After the disclosure phase, the disclosed features' log-likelihoods fold
// into a per-class bias (model specialization), and the circuit only
// touches the hidden features:
//
//   score_c = bias_c + sum over hidden f of table_f[x_f][c]
//   output  = argmax_c score_c
//
// Table entries and biases are *garbler inputs* (the model stays private);
// hidden feature values are evaluator inputs selected through mux trees.
#ifndef PAFS_SMC_SECURE_NB_H_
#define PAFS_SMC_SECURE_NB_H_

#include <map>

#include "circuit/circuit.h"
#include "ml/naive_bayes.h"
#include "smc/common.h"

namespace pafs {

// Public circuit description both parties agree on.
class SecureNbCircuit {
 public:
  SecureNbCircuit(const std::vector<FeatureSpec>& features, int num_classes,
                  const std::map<int, int>& disclosed);

  const Circuit& circuit() const { return circuit_; }
  const HiddenLayout& layout() const { return layout_; }
  int num_classes() const { return num_classes_; }

  // Garbler input bits: per-class bias (with the disclosed features'
  // contributions and priors folded in), then the hidden-feature tables.
  BitVec EncodeModel(const NaiveBayes& model,
                     const std::map<int, int>& disclosed) const;
  // Evaluator input bits for the hidden part of `row`.
  BitVec EncodeRow(const std::vector<int>& row) const {
    return layout_.EncodeRow(row);
  }
  // Decodes the circuit output into a class index.
  int DecodeOutput(const BitVec& output) const;

 private:
  HiddenLayout layout_;
  int num_classes_;
  uint32_t index_bits_;
  Circuit circuit_;
};

}  // namespace pafs

#endif  // PAFS_SMC_SECURE_NB_H_
