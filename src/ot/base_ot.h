// Base oblivious transfer: Chou-Orlandi "simplest OT" (Latincrypt 2015)
// over edwards25519 (ot/curve25519.h), about 128-bit security. Used only to
// seed the IKNP extension (128 transfers per session), in three flights
// whatever the batch size: the sender's A, every B_j in one frame, then
// every masked pair in one frame.
#ifndef PAFS_OT_BASE_OT_H_
#define PAFS_OT_BASE_OT_H_

#include <array>
#include <vector>

#include "crypto/block.h"
#include "net/channel.h"
#include "util/bitvec.h"

namespace pafs {

class Rng;

// Sender side: transfers one of (messages[j][0], messages[j][1]) per index.
void BaseOtSend(Channel& channel, const std::vector<std::array<Block, 2>>& messages,
                Rng& rng);

// Receiver side: obtains messages[j][choices[j]].
std::vector<Block> BaseOtRecv(Channel& channel, const BitVec& choices, Rng& rng);

}  // namespace pafs

#endif  // PAFS_OT_BASE_OT_H_
