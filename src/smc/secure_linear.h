// Secure linear-model evaluation: the Paillier + garbled-circuit hybrid.
//
// Phase 1 (homomorphic): the client one-hot-encrypts its hidden feature
// values; the server computes each class score under encryption (weights
// shifted to non-negative so scalar multiplications stay cheap), adds a
// random mask per class, and returns the masked ciphertexts.
// Phase 2 (garbled argmax): the client decrypts the masked scores; a small
// garbled circuit strips the server's masks and outputs only the argmax
// class. Neither the raw scores nor the model leak.
//
// Disclosure shrinks phase 1 linearly (fewer ciphertexts to encrypt,
// transfer, and exponentiate): disclosed features' weights fold into the
// per-class bias in plaintext.
#ifndef PAFS_SMC_SECURE_LINEAR_H_
#define PAFS_SMC_SECURE_LINEAR_H_

#include <functional>
#include <map>
#include <memory>

#include "circuit/circuit.h"
#include "crypto/paillier.h"
#include "gc/protocol.h"
#include "ml/linear_model.h"
#include "net/channel.h"
#include "ot/iknp.h"
#include "smc/common.h"

namespace pafs {

class Rng;
class PaillierPadPool;

// Offline/online hook: maps the client-announced modulus to that session's
// precomputed pad pool (serve/precompute.h), or null to run every modexp
// online. A callback because the server only learns n in phase 0. Returns
// a shared_ptr so the query keeps its pool alive even if the owning
// session rebuilds it for a different modulus mid-query.
using PaillierPoolFn =
    std::function<std::shared_ptr<PaillierPadPool>(const BigInt& n)>;

// Width of the masked-score words in the argmax circuit.
inline constexpr uint32_t kLinearScoreBits = 32;
// Masks are uniform in [0, 2^kLinearMaskBits).
inline constexpr int kLinearMaskBits = 25;
// Weights are shifted by this offset so homomorphic scalar multiplication
// uses small non-negative exponents.
inline constexpr int64_t kLinearWeightOffset = 1 << 13;

class SecureLinearProtocol {
 public:
  SecureLinearProtocol(const std::vector<FeatureSpec>& features,
                       int num_classes, const std::map<int, int>& disclosed);

  const HiddenLayout& layout() const { return layout_; }
  const Circuit& argmax_circuit() const { return circuit_; }
  int num_classes() const { return num_classes_; }
  // Total ciphertexts the client sends (sum of hidden cardinalities).
  int NumClientCiphertexts() const;

  // Both OT endpoints must already be Setup. `pool_for` / `pool` opt into
  // pooled Paillier randomness: precomputed pads replace the online r^n
  // modexps when available, with an inline fallback per op when the pool
  // runs dry (bit-identical client output for the same rng stream either
  // way; see crypto/paillier_pool.h).
  SmcRunStats RunServer(Channel& channel, const LinearModel& model,
                        const std::map<int, int>& disclosed, OtExtSender& ot,
                        Rng& rng,
                        GarblingScheme scheme = GarblingScheme::kHalfGates,
                        const PaillierPoolFn& pool_for = nullptr) const;
  SmcRunStats RunClient(Channel& channel, const PaillierKeyPair& keys,
                        const std::vector<int>& row, OtExtReceiver& ot,
                        Rng& rng,
                        GarblingScheme scheme = GarblingScheme::kHalfGates,
                        PaillierPadPool* pool = nullptr) const;

 private:
  HiddenLayout layout_;
  int num_classes_;
  uint32_t index_bits_;
  Circuit circuit_;
};

}  // namespace pafs

#endif  // PAFS_SMC_SECURE_LINEAR_H_
