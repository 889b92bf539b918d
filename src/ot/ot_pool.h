// Offline/online split for OT extension: bounded pools of precomputed
// random OTs (ot/iknp.h SendRandom/RecvRandom) plus the Beaver-style
// derandomized transfer that spends them. Generating a random OT costs the
// full IKNP machinery — PRG column expansion, a 128-wide transpose, and two
// hashes per transfer — but spending one online costs a single correction
// bit and two XORs, so a warm pool collapses the per-query OT cost the way
// PaillierPadPool collapsed the r^n exponentiations.
//
// The two pools are position-synchronized streams, not independent caches:
// pad j on the sender is only usable against pad j on the receiver, because
// the receiver's pad is H(t_j) = the sender's H(q_j ^ c_j·s). Both sides
// therefore consume strictly FIFO and carry a running sequence number; the
// derandomized transfer sends the receiver's start sequence on the wire and
// the sender refuses a mismatch (ProtocolError "ot pad pool desync") rather
// than silently producing garbage labels.
//
// Lockstep refill: both pools have one target depth (the serving handshake
// announces it) and lose the same pads on every pooled transfer, so their
// deficits are equal. Each end derives a request's refill, min(deficit,
// kMaxOtRefillPads) random OTs, from its own pool: the receiver sends that
// many IKNP columns unasked, the sender reads exactly that many, and no
// count crosses the wire. A pool out of step fails typed on the frame size.
//
// Refill determinism (serving-layer resumption): a refill is an extension
// pass over the column PRGs, so pads are a pure function of OT-stream state
// the resumption snapshot already covers. The client refills only inside a
// query (after its snapshot point), clears nothing on restore — the
// snapshot *includes* the pool — and a replayed retry regenerates the same
// columns byte-for-byte. The sender side may defer the expensive expansion
// (AddPending → Materialize) past the reply; a snapshot keeps pending
// batches as raw columns since their PRG state has not advanced yet.
//
// Snapshots share, never copy: ready pads and parked columns live in
// immutable reference-counted segments, one per Append/AddPending batch,
// and a pool's State is those segment pointers plus head offsets. Taking
// from a pool (or a restored copy) advances only that copy's offsets, so a
// snapshot keeps handing out exactly what the pool held when it was taken.
//
// Thread safety: all pool methods lock internally. Materialize additionally
// requires the caller to hold whatever exclusivity guards the OtExtSender
// stream itself (serve/server.cc's per-session ot_mu) — the expansion
// advances shared PRG/tweak state that live transfers also touch.
// Segments are immutable once appended, so a pool, its snapshots and the
// pools restored from them may run on different threads.
// Telemetry: ot.pool.hit / .miss / .refill counters and an ot.pool.depth
// histogram, mirroring the Paillier pool.
#ifndef PAFS_OT_OT_POOL_H_
#define PAFS_OT_OT_POOL_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "crypto/block.h"
#include "net/channel.h"
#include "ot/iknp.h"
#include "util/bitvec.h"
#include "util/random.h"

namespace pafs {

// Cap on one lockstep refill: a deeper pool fills over several requests.
inline constexpr size_t kMaxOtRefillPads = size_t{1} << 16;

// A FIFO of items stored in immutable, reference-counted batches: one
// segment per appended batch plus the offset of its first unspent item.
// Copying the queue copies segment pointers and offsets, never items.
template <typename Batch>
class SegmentQueue {
 public:
  size_t size() const { return size_; }

  // Appends the first `count` items of `batch`.
  void Append(std::shared_ptr<const Batch> batch, size_t count) {
    if (count == 0) return;
    segments_.push_back(Segment{std::move(batch), 0, count});
    size_ += count;
  }

  // Calls take(batch, index) for the first `count` items in FIFO order,
  // then drops them. Requires count <= size().
  template <typename Visit>
  void Take(size_t count, Visit&& take) {
    size_ -= count;
    while (count > 0) {
      Segment& seg = segments_.front();
      const size_t n = std::min(count, seg.end - seg.begin);
      for (size_t i = seg.begin; i < seg.begin + n; ++i) take(*seg.batch, i);
      seg.begin += n;
      count -= n;
      if (seg.begin == seg.end) segments_.pop_front();
    }
  }

 private:
  struct Segment {
    std::shared_ptr<const Batch> batch;
    size_t begin;
    size_t end;
  };
  std::deque<Segment> segments_;
  size_t size_ = 0;
};

// Sender-side pool: pad pairs {H(q_j), H(q_j ^ s)} awaiting derandomized
// sends, plus not-yet-expanded column batches parked for Materialize.
class OtSenderPadPool {
 public:
  using PadPairs = std::vector<std::array<Block, 2>>;
  // A received-but-unexpanded refill (ReceiveRandomColumns output).
  struct PendingBatch {
    size_t count;
    std::vector<std::vector<uint8_t>> u_columns;
  };

  // The pool's contents and stream position: what a resumption snapshot
  // holds. Copies share the pads and columns with the pool (file comment).
  class State {
   private:
    friend class OtSenderPadPool;
    SegmentQueue<PadPairs> ready;
    std::deque<std::shared_ptr<const PendingBatch>> pending;
    size_t pending_count = 0;
    uint64_t head_seq = 0;  // Stream position of the first ready pad.
  };

  explicit OtSenderPadPool(size_t target_depth) : target_(target_depth) {}

  size_t target_depth() const { return target_; }

  // Appends freshly expanded pad pairs (from SendRandom or Materialize).
  void Append(PadPairs pads);

  // Parks a received-but-unexpanded batch (ReceiveRandomColumns output).
  // Counts toward Deficit immediately; Materialize turns it into pads.
  void AddPending(size_t count, std::vector<std::vector<uint8_t>> u_columns);
  bool HasPending() const;
  // Expands every pending batch through `ot` (advancing its PRG/tweak
  // state). Caller must hold the OT stream's exclusivity — see file
  // comment. Returns pads materialized.
  size_t Materialize(OtExtSender& ot);

  // All-or-nothing take of `count` consecutive pads; *start_seq gets the
  // stream position of the first one. False (a pool miss) when fewer than
  // `count` ready pads remain — partial spends would desync the streams.
  bool TryTake(size_t count, PadPairs* pads, uint64_t* start_seq);

  // Pads (ready + pending) short of target_depth.
  size_t Deficit() const;
  size_t depth() const;

  // Snapshot/restore for serving-layer resumption. Pending batches stay
  // raw columns: their expansion state lives in the OtExtSender copy
  // taken alongside.
  State snapshot() const;
  void Restore(State state);

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t refilled = 0;
  };
  Stats stats() const;

 private:
  size_t target_;
  mutable std::mutex mu_;
  State state_;
  Stats stats_;
};

// Receiver-side pool: random choice bits c_j with their pads H(t_j).
class OtReceiverPadPool {
 public:
  // Mirrors OtSenderPadPool::State.
  class State {
   private:
    friend class OtReceiverPadPool;
    SegmentQueue<RandomOtBatch> ready;
    uint64_t head_seq = 0;
  };

  explicit OtReceiverPadPool(size_t target_depth) : target_(target_depth) {}

  size_t target_depth() const { return target_; }

  // Appends a RecvRandom batch.
  void Append(RandomOtBatch batch);

  // All-or-nothing take mirroring OtSenderPadPool::TryTake.
  bool TryTake(size_t count, BitVec* choices, std::vector<Block>* pads,
               uint64_t* start_seq);

  size_t Deficit() const;
  size_t depth() const;

  State snapshot() const;
  void Restore(State state);

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t refilled = 0;
  };
  Stats stats() const;

 private:
  size_t target_;
  mutable std::mutex mu_;
  State state_;
  Stats stats_;
};

// Derandomized OT pair: equivalent to ot.Send/ot.Recv but spends pooled
// pads when both sides have them. The receiver announces how many pooled
// transfers it will use (0 or all — the receiver decides, since only it
// knows its pool depth) followed by, when pooled, its start sequence and
// the word-packed correction bits e_j = b_j ^ c_j; the sender answers with
// the 2m masked messages y_{j,i} = m_{j,i} ^ pad_{j, i ^ e_j} in one flat
// frame. On announce 0 both sides fall back to the online extension. The
// sender treats a pooled announcement it cannot honor (no pool, wrong
// count, wrong sequence) as a protocol error: the streams are lockstep, so
// any mismatch means desync, not a benign miss.
void PooledOtSend(Channel& channel, OtExtSender& ot,
                  const std::vector<std::array<Block, 2>>& messages,
                  OtSenderPadPool* pool);
std::vector<Block> PooledOtRecv(Channel& channel, OtExtReceiver& ot,
                                const BitVec& choices,
                                OtReceiverPadPool* pool);

// The lockstep refill (file comment), run by both ends at the same point:
// the receiver sends the columns (RecvRandom), the sender parks them with
// AddPending for a later Materialize (the server's, once it has sent the
// request's completion ack). A null pool refills nothing.
void RefillReceiverPads(Channel& channel, OtExtReceiver& ot, Rng& rng,
                        OtReceiverPadPool* pool);
void RefillSenderPads(Channel& channel, OtExtSender& ot, OtSenderPadPool* pool);

}  // namespace pafs

#endif  // PAFS_OT_OT_POOL_H_
