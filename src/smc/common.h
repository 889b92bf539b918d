// Shared vocabulary of the secure classification protocols: which features
// remain hidden, how a patient row encodes into evaluator input bits, and
// fixed-point parameters. Both parties derive this layout from public
// information (the schema and the agreed disclosure set), so they always
// build identical circuits.
#ifndef PAFS_SMC_COMMON_H_
#define PAFS_SMC_COMMON_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "circuit/circuit.h"
#include "ml/dataset.h"
#include "util/bitvec.h"

namespace pafs {

class Channel;

// Fixed-point scale for model parameters inside circuits.
inline constexpr int64_t kSmcScale = 256;
// Signed word width for scores inside circuits. log-probabilities scaled by
// kSmcScale stay below 2^13 per term; sums over tens of terms fit easily.
inline constexpr uint32_t kSmcScoreBits = 20;

// Bits needed to represent values in [0, cardinality).
int BitsFor(int cardinality);

// The per-protocol view of which features stay hidden after disclosure.
class HiddenLayout {
 public:
  // `disclosed` maps feature id -> publicly revealed value. Every feature
  // not in the map stays hidden and becomes evaluator input.
  static HiddenLayout Make(const std::vector<FeatureSpec>& features,
                           const std::map<int, int>& disclosed);

  int num_hidden() const { return static_cast<int>(hidden_features_.size()); }
  const std::vector<int>& hidden_features() const { return hidden_features_; }
  int cardinality(int hidden_index) const {
    return cardinalities_[hidden_index];
  }
  int value_bits(int hidden_index) const { return value_bits_[hidden_index]; }
  // Offset of a hidden feature's bits within the evaluator input.
  int bit_offset(int hidden_index) const { return bit_offsets_[hidden_index]; }
  int total_value_bits() const { return total_value_bits_; }

  // Encodes the hidden part of a full row as evaluator input bits.
  BitVec EncodeRow(const std::vector<int>& row) const;

 private:
  std::vector<int> hidden_features_;
  std::vector<int> cardinalities_;
  std::vector<int> value_bits_;
  std::vector<int> bit_offsets_;
  int total_value_bits_ = 0;
};

// Encodes a signed value into `bits` two's complement bits appended to an
// existing BitVec (little-endian).
void AppendSigned(BitVec& bits, int64_t value, uint32_t width);

// Decodes little-endian two's complement from `bits[offset, offset+width)`.
int64_t DecodeSigned(const BitVec& bits, size_t offset, uint32_t width);

// The public circuit description the server ships before a tree or forest
// run: which features stay hidden (so the client can rebuild the layout)
// followed by the gate list. Factored out of the single-query runners so
// the serving layer's batch path can send one prelude per distinct
// disclosure set and share it across records.
struct CircuitPrelude {
  HiddenLayout layout;
  Circuit circuit;
};

void SendCircuitPrelude(Channel& channel, const HiddenLayout& layout,
                        const Circuit& circuit);

// Receives and validates a prelude. The announcement is untrusted wire
// data: the hidden count is bounded by the schema and every id must name a
// real feature before any of it shapes the layout; the circuit's evaluator
// width must match the layout it came with. `what` prefixes error messages
// (e.g. "secure forest").
CircuitPrelude RecvCircuitPrelude(Channel& channel,
                                  const std::vector<FeatureSpec>& features,
                                  const std::string& what);

// Outcome of one secure classification, with the traffic it consumed.
struct SmcRunStats {
  int predicted_class = -1;  // The evaluator's answer; -1 on the garbler.
  uint64_t bytes = 0;
  uint64_t rounds = 0;
  double wall_seconds = 0;  // Compute only; add NetworkProfile time for WAN.
  size_t and_gates = 0;     // 0 for phases without garbled circuits.
};

}  // namespace pafs

#endif  // PAFS_SMC_COMMON_H_
