#include "ot/ot_pool.h"

#include <algorithm>
#include <string>
#include <utility>

#include "net/error.h"
#include "obs/metrics.h"
#include "util/check.h"

namespace pafs {

namespace {

void RecordDepth(size_t depth) {
  if (!obs::Enabled()) return;
  static obs::Histogram& h = obs::GetHistogram("ot.pool.depth");
  h.Record(static_cast<double>(depth) + 1e-9);  // Keep depth 0 recordable.
}

void CountTake(bool hit, size_t count) {
  if (!obs::Enabled()) return;
  static obs::Counter& hits = obs::GetCounter("ot.pool.hit");
  static obs::Counter& misses = obs::GetCounter("ot.pool.miss");
  if (hit) {
    hits.Add(count);
  } else {
    misses.Add(count);
  }
}

void CountRefill(size_t count) {
  if (!obs::Enabled()) return;
  static obs::Counter& refills = obs::GetCounter("ot.pool.refill");
  refills.Add(count);
}

}  // namespace

void OtSenderPadPool::Append(PadPairs pads) {
  const size_t count = pads.size();
  auto batch = std::make_shared<const PadPairs>(std::move(pads));
  std::lock_guard<std::mutex> lock(mu_);
  stats_.refilled += count;
  CountRefill(count);
  state_.ready.Append(std::move(batch), count);
  RecordDepth(state_.ready.size());
}

void OtSenderPadPool::AddPending(size_t count,
                                 std::vector<std::vector<uint8_t>> u_columns) {
  auto batch = std::make_shared<const PendingBatch>(
      PendingBatch{count, std::move(u_columns)});
  std::lock_guard<std::mutex> lock(mu_);
  state_.pending_count += count;
  state_.pending.push_back(std::move(batch));
}

bool OtSenderPadPool::HasPending() const {
  std::lock_guard<std::mutex> lock(mu_);
  return !state_.pending.empty();
}

size_t OtSenderPadPool::Materialize(OtExtSender& ot) {
  // Drain pending batches one at a time so a concurrent AddPending (from
  // the session thread, while a filler materializes) is picked up too.
  // Expansion order is FIFO — the same order the peer's RecvRandom calls
  // advanced its own PRG state — so the streams stay aligned.
  size_t total = 0;
  for (;;) {
    std::shared_ptr<const PendingBatch> batch;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (state_.pending.empty()) break;
      batch = std::move(state_.pending.front());
      state_.pending.pop_front();
      state_.pending_count -= batch->count;
    }
    PadPairs pads = ot.ExpandRandomColumns(batch->u_columns, batch->count);
    total += pads.size();
    Append(std::move(pads));
  }
  return total;
}

bool OtSenderPadPool::TryTake(size_t count, PadPairs* pads,
                              uint64_t* start_seq) {
  std::lock_guard<std::mutex> lock(mu_);
  if (state_.ready.size() < count) {
    stats_.misses += count;
    CountTake(false, count);
    RecordDepth(state_.ready.size());
    return false;
  }
  pads->clear();
  pads->reserve(count);
  state_.ready.Take(count, [pads](const PadPairs& batch, size_t i) {
    pads->push_back(batch[i]);
  });
  *start_seq = state_.head_seq;
  state_.head_seq += count;
  stats_.hits += count;
  CountTake(true, count);
  RecordDepth(state_.ready.size());
  return true;
}

size_t OtSenderPadPool::Deficit() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t have = state_.ready.size() + state_.pending_count;
  return have >= target_ ? 0 : target_ - have;
}

size_t OtSenderPadPool::depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_.ready.size();
}

OtSenderPadPool::State OtSenderPadPool::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_;
}

void OtSenderPadPool::Restore(State state) {
  // Swapped, so the replaced contents are released after the lock.
  std::lock_guard<std::mutex> lock(mu_);
  std::swap(state_, state);
  RecordDepth(state_.ready.size());
}

OtSenderPadPool::Stats OtSenderPadPool::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void OtReceiverPadPool::Append(RandomOtBatch batch) {
  PAFS_CHECK_EQ(batch.choices.size(), batch.pads.size());
  const size_t count = batch.pads.size();
  auto shared = std::make_shared<const RandomOtBatch>(std::move(batch));
  std::lock_guard<std::mutex> lock(mu_);
  stats_.refilled += count;
  CountRefill(count);
  state_.ready.Append(std::move(shared), count);
  RecordDepth(state_.ready.size());
}

bool OtReceiverPadPool::TryTake(size_t count, BitVec* choices,
                                std::vector<Block>* pads,
                                uint64_t* start_seq) {
  std::lock_guard<std::mutex> lock(mu_);
  if (state_.ready.size() < count) {
    stats_.misses += count;
    CountTake(false, count);
    RecordDepth(state_.ready.size());
    return false;
  }
  *choices = BitVec(count);
  pads->resize(count);
  size_t j = 0;
  state_.ready.Take(count, [&](const RandomOtBatch& batch, size_t i) {
    choices->Set(j, batch.choices.Get(i));
    (*pads)[j] = batch.pads[i];
    ++j;
  });
  *start_seq = state_.head_seq;
  state_.head_seq += count;
  stats_.hits += count;
  CountTake(true, count);
  RecordDepth(state_.ready.size());
  return true;
}

size_t OtReceiverPadPool::Deficit() const {
  std::lock_guard<std::mutex> lock(mu_);
  const size_t have = state_.ready.size();
  return have >= target_ ? 0 : target_ - have;
}

size_t OtReceiverPadPool::depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_.ready.size();
}

OtReceiverPadPool::State OtReceiverPadPool::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_;
}

void OtReceiverPadPool::Restore(State state) {
  std::lock_guard<std::mutex> lock(mu_);
  std::swap(state_, state);
  RecordDepth(state_.ready.size());
}

OtReceiverPadPool::Stats OtReceiverPadPool::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void PooledOtSend(Channel& channel, OtExtSender& ot,
                  const std::vector<std::array<Block, 2>>& messages,
                  OtSenderPadPool* pool) {
  const size_t m = messages.size();
  uint64_t pooled = channel.RecvU64();
  if (pooled == 0) {
    ot.Send(channel, messages);
    return;
  }
  if (pooled != m) {
    throw ProtocolError("pooled OT: receiver announced " +
                        std::to_string(pooled) + " transfers, expected " +
                        std::to_string(m));
  }
  uint64_t peer_seq = channel.RecvU64();
  std::vector<uint8_t> packed = channel.RecvBytesExpected((m + 7) / 8);
  BitVec corrections = BitVec::FromBytes(packed.data(), m);

  std::vector<std::array<Block, 2>> pads;
  uint64_t start_seq = 0;
  if (pool == nullptr || !pool->TryTake(m, &pads, &start_seq) ||
      start_seq != peer_seq) {
    // Lockstep streams: the receiver only announces pooled transfers it
    // actually holds, so any shortfall or sequence skew here is state
    // corruption, not a recoverable miss.
    throw ProtocolError("pooled OT: pad pool desync");
  }

  // Derandomize: y_{j,i} = m_{j,i} ^ pad_{j, i ^ e_j}, so the receiver's
  // chosen message is masked by the one pad it holds.
  std::vector<Block> flat(2 * m);
  for (size_t j = 0; j < m; ++j) {
    bool e = corrections.Get(j);
    flat[2 * j] = messages[j][0] ^ pads[j][e ? 1 : 0];
    flat[2 * j + 1] = messages[j][1] ^ pads[j][e ? 0 : 1];
  }
  channel.SendBlocks(flat);
}

std::vector<Block> PooledOtRecv(Channel& channel, OtExtReceiver& ot,
                                const BitVec& choices,
                                OtReceiverPadPool* pool) {
  const size_t m = choices.size();
  BitVec pool_choices;
  std::vector<Block> pads;
  uint64_t start_seq = 0;
  if (m == 0 || pool == nullptr ||
      !pool->TryTake(m, &pool_choices, &pads, &start_seq)) {
    channel.SendU64(0);
    return ot.Recv(channel, choices);
  }

  channel.SendU64(m);
  channel.SendU64(start_seq);
  BitVec corrections = choices ^ pool_choices;
  channel.SendBytes(corrections.ToBytes());

  std::vector<Block> flat = channel.RecvBlocksExpected(2 * m);
  std::vector<Block> out(m);
  for (size_t j = 0; j < m; ++j) {
    out[j] = flat[2 * j + (choices.Get(j) ? 1 : 0)] ^ pads[j];
  }
  return out;
}

void RefillReceiverPads(Channel& channel, OtExtReceiver& ot, Rng& rng,
                        OtReceiverPadPool* pool) {
  if (pool == nullptr) return;
  const size_t count = std::min(pool->Deficit(), kMaxOtRefillPads);
  if (count > 0) pool->Append(ot.RecvRandom(channel, rng, count));
}

void RefillSenderPads(Channel& channel, OtExtSender& ot,
                      OtSenderPadPool* pool) {
  if (pool == nullptr) return;
  const size_t count = std::min(pool->Deficit(), kMaxOtRefillPads);
  if (count > 0) {
    pool->AddPending(count, ot.ReceiveRandomColumns(channel, count));
  }
}

}  // namespace pafs
