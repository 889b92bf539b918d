// Client send counts that serving fault plans offset their first_op by.
// A fault plan counts the client's sends beneath the CRC framing, one per
// Channel::Send; the length-prefixed helpers (SendBytes, SendBlocks) make
// two, the prefix and the body. Shared by serve_test and chaos_test.
#ifndef PAFS_TESTS_FAULT_OFFSETS_H_
#define PAFS_TESTS_FAULT_OFFSETS_H_

#include <cstdint>

namespace pafs {

// Sends of one length-prefixed frame: the prefix, then the body.
inline constexpr uint64_t kFrameSends = 2;
// The client's base-OT flights in a fresh handshake: A as one point frame,
// then every masked seed pair as one block frame (ot/base_ot.cc).
inline constexpr uint64_t kBaseOtClientSends = 2 * kFrameSends;
// The fresh hello: magic, version, an empty ticket's length.
inline constexpr uint64_t kHelloClientSends = 3;
// The head of every request before its disclosure values: tag, query id,
// record count.
inline constexpr uint64_t kRequestHeadSends = 3;

}  // namespace pafs

#endif  // PAFS_TESTS_FAULT_OFFSETS_H_
