// ABY-style secure linear evaluation (Demmler-Schneider-Zohner, NDSS
// 2015): arithmetic secret sharing replaces Paillier in phase 1.
//
// Phase 1 (arithmetic sharing via OT): each class score is additively
// shared mod 2^32. Because one-hot entries are single bits, each
// (class, one-hot slot) product w*x costs exactly one extended OT of a
// 32-bit correlated pair (r, r+w) — Gilboa multiplication degenerating to
// its one-bit case. The server's share starts from the folded bias minus
// its correlation masks; the client's share is the sum of its OT outputs.
//
// Phase 2 (garbled argmax): the same argmax circuit as the Paillier
// hybrid, except it first reconstructs each score with an in-circuit
// adder over the two 32-bit shares (two's complement handles negatives).
//
// The serving drivers (serve/engine.h) run it: they call the per-record
// pieces (ShareMessages / Choices / EvaluatorBits) for every record of a
// request, move all phase-1 OTs in one transfer, pooled when warm, and
// garble the argmax batch, pre-garbled when pooled. This class has no
// in-process runner of its own; experiment F16 and the tests drive it
// through those drivers and compare it against the Paillier hybrid:
// identical predictions, symmetric-crypto-only compute.
#ifndef PAFS_SMC_SECURE_LINEAR_ABY_H_
#define PAFS_SMC_SECURE_LINEAR_ABY_H_

#include <array>
#include <map>
#include <vector>

#include "circuit/circuit.h"
#include "crypto/block.h"
#include "ml/linear_model.h"
#include "smc/common.h"
#include "util/bitvec.h"

namespace pafs {

class Rng;

class SecureLinearAbyProtocol {
 public:
  SecureLinearAbyProtocol(const std::vector<FeatureSpec>& features,
                          int num_classes,
                          const std::map<int, int>& disclosed);

  const HiddenLayout& layout() const { return layout_; }
  const Circuit& argmax_circuit() const { return circuit_; }
  // OTs consumed by phase 1 per query (classes x sum of hidden cards).
  int NumProductOts() const;

  // Server piece: one record's phase-1 OT messages (r, r + w), one per
  // (class, hidden one-hot slot) in Choices() order, with the r drawn from
  // `rng`. `garbler_bits` gets the server's score shares (folded bias minus
  // the masks) encoded for the argmax circuit.
  std::vector<std::array<Block, 2>> ShareMessages(
      const LinearModel& model, const std::map<int, int>& disclosed, Rng& rng,
      BitVec* garbler_bits) const;
  // Client pieces: the phase-1 choice bits for `row` (its one-hot hidden
  // indicators, repeated per class), and the argmax circuit's evaluator
  // bits from the NumProductOts() received OT outputs.
  BitVec Choices(const std::vector<int>& row) const;
  BitVec EvaluatorBits(const std::vector<Block>& received) const;

 private:
  HiddenLayout layout_;
  int num_classes_;
  uint32_t index_bits_;
  Circuit circuit_;
};

}  // namespace pafs

#endif  // PAFS_SMC_SECURE_LINEAR_ABY_H_
