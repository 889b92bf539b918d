// IKNP oblivious-transfer extension (Ishai-Kilian-Nissim-Petrank, Crypto
// 2003), semi-honest variant. A session pays 128 base OTs once at Setup and
// then serves an unbounded number of fast extended transfers; the per-column
// PRGs carry state across calls so repeated Send/Recv pairs stay in sync.
#ifndef PAFS_OT_IKNP_H_
#define PAFS_OT_IKNP_H_

#include <array>
#include <memory>
#include <vector>

#include "crypto/block.h"
#include "crypto/prg.h"
#include "net/channel.h"
#include "util/bitvec.h"

namespace pafs {

class Rng;

inline constexpr int kOtExtensionWidth = 128;

// One batch of random OTs generated offline for the pad pool (see
// ot/ot_pool.h): the receiver's random choice bits plus the pad it holds
// for each transfer. pads[j] is the sender's pad for index choices[j].
struct RandomOtBatch {
  BitVec choices;
  std::vector<Block> pads;
};

class OtExtSender {
 public:
  // Runs the base-OT phase (acting as base-OT *receiver* with random
  // choice bits s). Must pair with OtExtReceiver::Setup on the other side.
  // Counted in ot.base.setups — resumption tests assert this stays flat
  // across a ticket reconnect.
  void Setup(Channel& channel, Rng& rng);

  // Transfers messages[j][0] / messages[j][1]; the receiver's choice bit
  // selects which one it learns. Requires Setup.
  void Send(Channel& channel, const std::vector<std::array<Block, 2>>& messages);

  // Bit-message variant: transfers one of two single bits per index with
  // the masked pair packed 4-transfers-per-byte on the wire. This is what
  // GMW triple generation wants — Block-sized messages would inflate its
  // bandwidth 128x.
  void SendBits(Channel& channel, const BitVec& bits0, const BitVec& bits1);

  // Offline random-OT generation (the pad-pool refill): one extension pass
  // with no message masking — both parties keep only the hash pads, and a
  // later derandomized transfer (ot/ot_pool.h) turns each pad pair into a
  // real OT with one correction bit and two XORs. Returns
  // pads[j] = {H(q_j), H(q_j ^ s)}. Equivalent to ReceiveRandomColumns
  // followed immediately by ExpandRandomColumns.
  std::vector<std::array<Block, 2>> SendRandom(Channel& channel, size_t count);

  // Split form for idle-worker precompute: the interactive half (draining
  // the receiver's u columns off the wire) is cheap and runs in the online
  // tail; the PRG expansion + transpose + hashing can then run on an idle
  // worker via ExpandRandomColumns. No other extension op may run between
  // the two calls — ExpandRandomColumns advances the column-PRG and tweak
  // state the peer's matching RecvRandom already advanced on its side.
  std::vector<std::vector<uint8_t>> ReceiveRandomColumns(Channel& channel,
                                                         size_t count);
  std::vector<std::array<Block, 2>> ExpandRandomColumns(
      const std::vector<std::vector<uint8_t>>& u_columns, size_t count);

  bool is_setup() const { return !column_prgs_.empty(); }

 private:
  Block s_block_;
  BitVec s_bits_;
  std::vector<Prg> column_prgs_;  // Keyed by the base-OT outputs k_i^{s_i}.
  uint64_t tweak_ = 0;
};

class OtExtReceiver {
 public:
  // Base-OT phase, acting as base-OT *sender* with fresh seed pairs.
  void Setup(Channel& channel, Rng& rng);

  // Learns messages[j][choices[j]] for each j.
  std::vector<Block> Recv(Channel& channel, const BitVec& choices);

  // Bit-message variant pairing OtExtSender::SendBits.
  BitVec RecvBits(Channel& channel, const BitVec& choices);

  // Offline random-OT generation pairing OtExtSender::SendRandom: draws
  // `count` uniform choice bits from `rng`, sends the masked columns, and
  // keeps one pad per transfer (pads[j] = H(t_j), the sender's pad for
  // index choices[j]).
  RandomOtBatch RecvRandom(Channel& channel, Rng& rng, size_t count);

  bool is_setup() const { return !column_prgs0_.empty(); }

 private:
  std::vector<Prg> column_prgs0_;
  std::vector<Prg> column_prgs1_;
  uint64_t tweak_ = 0;
};

}  // namespace pafs

#endif  // PAFS_OT_IKNP_H_
