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

void OtSenderPadPool::Append(std::vector<std::array<Block, 2>> pads) {
  std::lock_guard<std::mutex> lock(mu_);
  stats_.refilled += pads.size();
  CountRefill(pads.size());
  for (auto& pair : pads) pads_.push_back(pair);
  RecordDepth(pads_.size());
}

void OtSenderPadPool::AddPending(size_t count,
                                 std::vector<std::vector<uint8_t>> u_columns) {
  std::lock_guard<std::mutex> lock(mu_);
  pending_count_ += count;
  pending_.push_back(PendingBatch{count, std::move(u_columns)});
}

bool OtSenderPadPool::HasPending() const {
  std::lock_guard<std::mutex> lock(mu_);
  return !pending_.empty();
}

size_t OtSenderPadPool::Materialize(OtExtSender& ot) {
  // Drain pending batches one at a time so a concurrent AddPending (from
  // the session thread, while a filler materializes) is picked up too.
  // Expansion order is FIFO — the same order the peer's RecvRandom calls
  // advanced its own PRG state — so the streams stay aligned.
  size_t total = 0;
  for (;;) {
    PendingBatch batch;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (pending_.empty()) break;
      batch = std::move(pending_.front());
      pending_.pop_front();
      pending_count_ -= batch.count;
    }
    std::vector<std::array<Block, 2>> pads =
        ot.ExpandRandomColumns(batch.u_columns, batch.count);
    total += pads.size();
    Append(std::move(pads));
  }
  return total;
}

bool OtSenderPadPool::TryTake(size_t count,
                              std::vector<std::array<Block, 2>>* pads,
                              uint64_t* start_seq) {
  std::lock_guard<std::mutex> lock(mu_);
  if (pads_.size() < count) {
    stats_.misses += count;
    CountTake(false, count);
    RecordDepth(pads_.size());
    return false;
  }
  pads->assign(pads_.begin(), pads_.begin() + static_cast<long>(count));
  pads_.erase(pads_.begin(), pads_.begin() + static_cast<long>(count));
  *start_seq = head_seq_;
  head_seq_ += count;
  stats_.hits += count;
  CountTake(true, count);
  RecordDepth(pads_.size());
  return true;
}

size_t OtSenderPadPool::Deficit() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t have = pads_.size() + pending_count_;
  return have >= target_ ? 0 : target_ - have;
}

size_t OtSenderPadPool::depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pads_.size();
}

void OtSenderPadPool::Serialize(ByteWriter& w) const {
  std::lock_guard<std::mutex> lock(mu_);
  w.U64(head_seq_);
  w.U32(static_cast<uint32_t>(pads_.size()));
  uint8_t buf[16];
  for (const auto& pair : pads_) {
    pair[0].ToBytes(buf);
    w.Bytes(buf, 16);
    pair[1].ToBytes(buf);
    w.Bytes(buf, 16);
  }
  w.U32(static_cast<uint32_t>(pending_.size()));
  for (const PendingBatch& batch : pending_) {
    w.U64(batch.count);
    for (const auto& column : batch.u_columns) {
      PAFS_CHECK_EQ(column.size(), (batch.count + 7) / 8);
      w.Bytes(column.data(), column.size());
    }
  }
}

void OtSenderPadPool::Restore(ByteReader& r) {
  std::lock_guard<std::mutex> lock(mu_);
  pads_.clear();
  pending_.clear();
  pending_count_ = 0;
  head_seq_ = r.U64();
  uint32_t ready = r.U32();
  uint8_t buf[16];
  for (uint32_t i = 0; i < ready; ++i) {
    std::array<Block, 2> pair;
    r.Bytes(buf, 16);
    pair[0] = Block::FromBytes(buf);
    r.Bytes(buf, 16);
    pair[1] = Block::FromBytes(buf);
    pads_.push_back(pair);
  }
  uint32_t batches = r.U32();
  for (uint32_t i = 0; i < batches; ++i) {
    PendingBatch batch;
    batch.count = r.U64();
    size_t col_bytes = (batch.count + 7) / 8;
    batch.u_columns.resize(kOtExtensionWidth);
    for (auto& column : batch.u_columns) {
      column.resize(col_bytes);
      r.Bytes(column.data(), col_bytes);
    }
    pending_count_ += batch.count;
    pending_.push_back(std::move(batch));
  }
  RecordDepth(pads_.size());
}

OtSenderPadPool::Stats OtSenderPadPool::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void OtReceiverPadPool::Append(const RandomOtBatch& batch) {
  PAFS_CHECK_EQ(batch.choices.size(), batch.pads.size());
  std::lock_guard<std::mutex> lock(mu_);
  stats_.refilled += batch.pads.size();
  CountRefill(batch.pads.size());
  for (size_t j = 0; j < batch.pads.size(); ++j) {
    entries_.push_back(Entry{batch.choices.Get(j), batch.pads[j]});
  }
  RecordDepth(entries_.size());
}

bool OtReceiverPadPool::TryTake(size_t count, BitVec* choices,
                                std::vector<Block>* pads,
                                uint64_t* start_seq) {
  std::lock_guard<std::mutex> lock(mu_);
  if (entries_.size() < count) {
    stats_.misses += count;
    CountTake(false, count);
    RecordDepth(entries_.size());
    return false;
  }
  *choices = BitVec(count);
  pads->resize(count);
  for (size_t j = 0; j < count; ++j) {
    choices->Set(j, entries_[j].choice);
    (*pads)[j] = entries_[j].pad;
  }
  entries_.erase(entries_.begin(), entries_.begin() + static_cast<long>(count));
  *start_seq = head_seq_;
  head_seq_ += count;
  stats_.hits += count;
  CountTake(true, count);
  RecordDepth(entries_.size());
  return true;
}

size_t OtReceiverPadPool::Deficit() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size() >= target_ ? 0 : target_ - entries_.size();
}

size_t OtReceiverPadPool::depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

void OtReceiverPadPool::Serialize(ByteWriter& w) const {
  std::lock_guard<std::mutex> lock(mu_);
  w.U64(head_seq_);
  w.U32(static_cast<uint32_t>(entries_.size()));
  uint8_t buf[16];
  for (const Entry& e : entries_) {
    w.U32(e.choice ? 1 : 0);
    e.pad.ToBytes(buf);
    w.Bytes(buf, 16);
  }
}

void OtReceiverPadPool::Restore(ByteReader& r) {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  head_seq_ = r.U64();
  uint32_t count = r.U32();
  uint8_t buf[16];
  for (uint32_t i = 0; i < count; ++i) {
    Entry e;
    e.choice = r.U32() != 0;
    r.Bytes(buf, 16);
    e.pad = Block::FromBytes(buf);
    entries_.push_back(e);
  }
  RecordDepth(entries_.size());
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
