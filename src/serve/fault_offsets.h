// Client send counts that serving fault plans offset their first_op by.
// A fault plan counts the client's sends beneath the CRC framing, and
// FramedChannel makes one such send per flight: everything the client
// sends before its next Recv leaves as one frame. So these constants
// count flights, and a length-prefixed helper (SendBytes, SendBlocks) adds
// none of its own. The one place that knows the client's flight shape:
// the tests and bench_serving aim their fault plans with it.
#ifndef PAFS_SERVE_FAULT_OFFSETS_H_
#define PAFS_SERVE_FAULT_OFFSETS_H_

#include <cstdint>

namespace pafs {

// Sends of one flight below the 64 KiB frame bound: its single frame.
inline constexpr uint64_t kFrameSends = 1;
// The client's base-OT flights in a fresh handshake: A as one point
// frame, then every masked seed pair in one block frame (ot/base_ot.cc).
inline constexpr uint64_t kBaseOtClientSends = 2 * kFrameSends;
// The fresh hello (magic, version, an empty ticket's length) is one
// flight, answered by the server's status.
inline constexpr uint64_t kHelloClientSends = kFrameSends;
// Every request opens with one flight: tag, query id, record count and
// every disclosed value, answered by the admission ack.
inline constexpr uint64_t kRequestHeadSends = kFrameSends;
// A one-record naive-Bayes query's flights past its request on a pooled
// session: the evaluator's input-label OT (a pool miss's flag and IKNP
// columns, or a pool hit's corrections), then the lockstep refill's IKNP
// columns before the completion ack. An unpooled session (announced OT
// pool depth 0) sends no refill flight.
inline constexpr uint64_t kNbQueryTailSends = 2 * kFrameSends;

}  // namespace pafs

#endif  // PAFS_SERVE_FAULT_OFFSETS_H_
