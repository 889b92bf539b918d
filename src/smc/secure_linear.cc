#include "smc/secure_linear.h"

#include <memory>
#include <string>
#include <utility>

#include "circuit/builder.h"
#include "crypto/paillier_pool.h"
#include "util/check.h"
#include "util/parallel.h"
#include "util/random.h"
#include "util/timer.h"

namespace pafs {

SecureLinearProtocol::SecureLinearProtocol(
    const std::vector<FeatureSpec>& features, int num_classes,
    const std::map<int, int>& disclosed)
    : layout_(HiddenLayout::Make(features, disclosed)),
      num_classes_(num_classes),
      index_bits_(static_cast<uint32_t>(BitsFor(num_classes))),
      circuit_([this] {
        // Garbler (server): masks r_c. Evaluator (client): masked scores.
        CircuitBuilder b(num_classes_ * kLinearScoreBits,
                         num_classes_ * kLinearScoreBits);
        std::vector<CircuitBuilder::Word> scores(num_classes_);
        for (int c = 0; c < num_classes_; ++c) {
          auto mask = b.GarblerWord(c * kLinearScoreBits, kLinearScoreBits);
          auto masked = b.EvaluatorWord(c * kLinearScoreBits, kLinearScoreBits);
          scores[c] = b.SubW(masked, mask);
        }
        auto [index, value] = b.ArgMaxSigned(scores);
        (void)value;
        CircuitBuilder::Word out = index;
        while (out.size() < index_bits_) out.push_back(b.ConstZero());
        out.resize(index_bits_);
        b.AddOutputWord(out);
        return b.Build();
      }()) {}

int SecureLinearProtocol::NumClientCiphertexts() const {
  int total = 0;
  for (int h = 0; h < layout_.num_hidden(); ++h) {
    total += layout_.cardinality(h);
  }
  return total;
}

SmcRunStats SecureLinearProtocol::RunServer(Channel& channel,
                                            const LinearModel& model,
                                            const std::map<int, int>& disclosed,
                                            OtExtSender& ot, Rng& rng,
                                            const PaillierPoolFn& pool_for) const {
  Timer timer;
  uint64_t bytes_before = channel.stats().bytes_sent;
  uint64_t rounds_before = channel.stats().direction_flips;

  // Phase 0: the client's Paillier public key. The modulus is untrusted
  // wire data: reject anything PaillierPublicKey's MontgomeryCtx would
  // PAFS_CHECK-abort on (an even n) or that is too small to be a real
  // Paillier key, *before* building key or pool state from it — a
  // ProtocolError fails this query; an abort would kill the process.
  BigInt n = channel.RecvBigInt();
  if (!(n > BigInt(1)) || !n.is_odd()) {
    throw ProtocolError("secure linear: degenerate Paillier modulus");
  }
  if (n.BitLength() < kMinPaillierModulusBits) {
    throw ProtocolError("secure linear: Paillier modulus below " +
                        std::to_string(kMinPaillierModulusBits) + " bits");
  }
  PaillierPublicKey pk(n);

  // Precomputed pads turn the bias encryption and the per-class
  // rerandomization below into single multiplies; a dry pool falls back to
  // the online modexp per op. The shared_ptr keeps this query's pool alive
  // even if the session rebuilds it for another modulus concurrently.
  std::shared_ptr<PaillierPadPool> pool = pool_for ? pool_for(n) : nullptr;
  auto encrypt = [&](const BigInt& m) {
    BigInt pad;
    if (pool != nullptr && pool->TryTake(&pad)) {
      return pk.EncryptWithPad(m, pad);
    }
    return pk.Encrypt(m, rng);
  };
  auto rerandomize = [&](const BigInt& c) {
    BigInt pad;
    if (pool != nullptr && pool->TryTake(&pad)) {
      return pk.RerandomizeWithPad(c, pad);
    }
    return pk.Rerandomize(c, rng);
  };

  // Phase 1: one ciphertext per (hidden feature, value) one-hot slot.
  // Ciphertexts are residues mod n^2; anything outside is a rogue peer.
  std::vector<std::vector<BigInt>> cts(layout_.num_hidden());
  for (int h = 0; h < layout_.num_hidden(); ++h) {
    cts[h].resize(layout_.cardinality(h));
    for (int v = 0; v < layout_.cardinality(h); ++v) {
      BigInt ct = channel.RecvBigInt();
      if (!(ct < pk.n_squared())) {
        throw ProtocolError(
            "secure linear: client ciphertext outside residue range");
      }
      cts[h][v] = std::move(ct);
    }
  }

  auto fixed_weights = model.FixedWeights(kSmcScale);
  auto fixed_bias = model.FixedBias(kSmcScale);

  std::vector<int64_t> masks(num_classes_);
  for (int c = 0; c < num_classes_; ++c) {
    masks[c] = static_cast<int64_t>(rng.NextU64Below(1ull << kLinearMaskBits));

    // Bias folds the disclosed features' weights and compensates for the
    // non-negative weight shift (+offset per hidden feature, each one-hot
    // group contributes exactly one active slot).
    int64_t bias = fixed_bias[c];
    for (const auto& [feature, value] : disclosed) {
      bias += fixed_weights[c][model.FeatureOffset(feature) + value];
    }
    bias -= kLinearWeightOffset * layout_.num_hidden();

    BigInt score_ct = encrypt(BigInt(bias + masks[c]));
    for (int h = 0; h < layout_.num_hidden(); ++h) {
      int f = layout_.hidden_features()[h];
      for (int v = 0; v < layout_.cardinality(h); ++v) {
        int64_t w =
            fixed_weights[c][model.FeatureOffset(f) + v] + kLinearWeightOffset;
        PAFS_CHECK_GE(w, 0);
        score_ct = pk.Add(score_ct, pk.MulPlain(cts[h][v], BigInt(w)));
      }
    }
    channel.SendBigInt(rerandomize(score_ct));
  }

  // Phase 2: garbled argmax with the masks as garbler inputs.
  BitVec garbler_bits(0);
  for (int c = 0; c < num_classes_; ++c) {
    AppendSigned(garbler_bits, masks[c], kLinearScoreBits);
  }
  GcRunGarblerBatch(channel, {GcGarbleItem{&circuit_, &garbler_bits}}, ot,
                    rng);

  SmcRunStats stats;
  stats.bytes = channel.stats().bytes_sent - bytes_before;
  stats.rounds = channel.stats().direction_flips - rounds_before;
  stats.wall_seconds = timer.ElapsedSeconds();
  stats.and_gates = circuit_.Stats().and_gates;
  return stats;
}

SmcRunStats SecureLinearProtocol::RunClient(Channel& channel,
                                            const PaillierKeyPair& keys,
                                            const std::vector<int>& row,
                                            OtExtReceiver& ot, Rng& rng,
                                            PaillierPadPool* pool) const {
  Timer timer;
  uint64_t bytes_before = channel.stats().bytes_sent;
  uint64_t rounds_before = channel.stats().direction_flips;

  const PaillierPublicKey& pk = keys.public_key;
  channel.SendBigInt(pk.n());

  // Phase 1: one-hot encrypt the hidden features. Batched so pooled pads
  // (and, where a pool is available, parallel pad computation) replace the
  // per-slot online modexp; ciphertexts match the former per-slot Encrypt
  // loop bit for bit on the same rng stream.
  std::vector<BigInt> indicator_bits;
  indicator_bits.reserve(NumClientCiphertexts());
  for (int h = 0; h < layout_.num_hidden(); ++h) {
    int value = row[layout_.hidden_features()[h]];
    for (int v = 0; v < layout_.cardinality(h); ++v) {
      indicator_bits.emplace_back(v == value ? 1 : 0);
    }
  }
  std::vector<BigInt> cts =
      EncryptBatch(pk, indicator_bits, rng, pool, ThreadPool::Global());
  for (const BigInt& ct : cts) channel.SendBigInt(ct);

  // Masked scores come back; decrypt them.
  BitVec evaluator_bits(0);
  for (int c = 0; c < num_classes_; ++c) {
    BigInt score_ct = channel.RecvBigInt();
    if (!(score_ct < pk.n_squared())) {
      throw ProtocolError(
          "secure linear: server ciphertext outside residue range");
    }
    BigInt masked = keys.private_key.Decrypt(score_ct);
    AppendSigned(evaluator_bits, masked.ToI64(), kLinearScoreBits);
  }

  // Phase 2: garbled argmax.
  BitVec out = GcRunEvaluatorBatch(
      channel, {GcEvalItem{&circuit_, &evaluator_bits}}, ot)[0];

  SmcRunStats stats;
  stats.predicted_class = static_cast<int>(out.ToU64(0, index_bits_));
  stats.bytes = channel.stats().bytes_sent - bytes_before;
  stats.rounds = channel.stats().direction_flips - rounds_before;
  stats.wall_seconds = timer.ElapsedSeconds();
  stats.and_gates = circuit_.Stats().and_gates;
  return stats;
}

}  // namespace pafs
