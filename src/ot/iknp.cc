#include "ot/iknp.h"

#include "obs/trace.h"
#include "ot/base_ot.h"
#include "ot/transpose.h"
#include "util/check.h"
#include "util/random.h"

namespace pafs {

namespace {

// Both parties expand the same number of PRG bytes per extension call so
// their per-column streams stay aligned.
size_t ColumnBytes(size_t num_transfers) { return (num_transfers + 7) / 8; }

// Transposes the 128-column bit matrix into per-transfer row blocks; the
// span isolates the transpose cost from the rest of the extension.
std::vector<Block> TransposeRows(
    const std::vector<std::vector<uint8_t>>& columns, size_t m) {
  obs::TraceSpan span("ot.ext.transpose");
  return TransposeColumns(columns, m);
}

// One hash pad H(rows[j], tweak + j) per transfer, batched through the
// fixed-key cipher instead of a per-row permutation call.
std::vector<Block> RowPads(const std::vector<Block>& rows, uint64_t tweak) {
  std::vector<Block> pads(rows.size());
  for (size_t j = 0; j < rows.size(); ++j) {
    pads[j] = HashBlockInput(rows[j], tweak + j);
  }
  HashBlocksBatch(pads.data(), pads.size());
  return pads;
}

// Sender-side variant: pad pairs H(q_j, t+j), H(q_j ^ s, t+j) interleaved
// as pads[2j], pads[2j+1].
std::vector<Block> RowPadPairs(const std::vector<Block>& rows,
                               const Block& s_block, uint64_t tweak) {
  std::vector<Block> pads(2 * rows.size());
  for (size_t j = 0; j < rows.size(); ++j) {
    pads[2 * j] = HashBlockInput(rows[j], tweak + j);
    pads[2 * j + 1] = HashBlockInput(rows[j] ^ s_block, tweak + j);
  }
  HashBlocksBatch(pads.data(), pads.size());
  return pads;
}

}  // namespace

void OtExtSender::Setup(Channel& channel, Rng& rng) {
  obs::TraceSpan span("ot.ext.setup");
  PAFS_CHECK_MSG(column_prgs_.empty(), "Setup called twice");
  static obs::Counter& setups = obs::GetCounter("ot.base.setups");
  setups.Add();
  s_bits_ = BitVec(kOtExtensionWidth);
  for (int i = 0; i < kOtExtensionWidth; ++i) s_bits_.Set(i, rng.NextBool());
  s_block_ = Block(s_bits_.ToU64(0, 64), s_bits_.ToU64(64, 64));
  // Roles reverse for the base phase: the extension sender receives the
  // seed k_i^{s_i} for each column.
  std::vector<Block> seeds = BaseOtRecv(channel, s_bits_, rng);
  column_prgs_.reserve(kOtExtensionWidth);
  for (const Block& seed : seeds) column_prgs_.emplace_back(seed);
}

void OtExtReceiver::Setup(Channel& channel, Rng& rng) {
  obs::TraceSpan span("ot.ext.setup");
  PAFS_CHECK_MSG(column_prgs0_.empty(), "Setup called twice");
  static obs::Counter& setups = obs::GetCounter("ot.base.setups");
  setups.Add();
  std::vector<std::array<Block, 2>> seed_pairs(kOtExtensionWidth);
  for (auto& pair : seed_pairs) {
    pair[0] = Block(rng.NextU64(), rng.NextU64());
    pair[1] = Block(rng.NextU64(), rng.NextU64());
  }
  BaseOtSend(channel, seed_pairs, rng);
  column_prgs0_.reserve(kOtExtensionWidth);
  column_prgs1_.reserve(kOtExtensionWidth);
  for (const auto& pair : seed_pairs) {
    column_prgs0_.emplace_back(pair[0]);
    column_prgs1_.emplace_back(pair[1]);
  }
}

std::vector<Block> OtExtReceiver::Recv(Channel& channel,
                                       const BitVec& choices) {
  PAFS_CHECK_MSG(is_setup(), "Recv before Setup");
  const size_t m = choices.size();
  const size_t col_bytes = ColumnBytes(m);
  std::vector<uint8_t> r_bytes = choices.ToBytes();

  // T columns from PRG0; U = T ^ PRG1 ^ r goes to the sender. The matrix
  // generation plus transpose is this side's compute; the masked-pair
  // receives below wait on the sender and stay unspanned.
  std::vector<Block> t_rows;
  {
    obs::TraceSpan span("ot.ext");
    span.AddAttr("transfers", static_cast<double>(m));
    std::vector<std::vector<uint8_t>> t_columns(kOtExtensionWidth);
    for (int i = 0; i < kOtExtensionWidth; ++i) {
      t_columns[i] = column_prgs0_[i].Bytes(col_bytes);
      std::vector<uint8_t> u = column_prgs1_[i].Bytes(col_bytes);
      for (size_t b = 0; b < col_bytes; ++b) {
        u[b] ^= t_columns[i][b] ^ r_bytes[b];
      }
      channel.SendBytes(u);
    }
    t_rows = TransposeRows(t_columns, m);
  }

  // Receive the masked message pairs and unmask the chosen one.
  std::vector<Block> pads = RowPads(t_rows, tweak_);
  std::vector<Block> out(m);
  for (size_t j = 0; j < m; ++j) {
    Block y0 = channel.RecvBlock();
    Block y1 = channel.RecvBlock();
    out[j] = (choices.Get(j) ? y1 : y0) ^ pads[j];
  }
  tweak_ += m;
  return out;
}

BitVec OtExtReceiver::RecvBits(Channel& channel, const BitVec& choices) {
  PAFS_CHECK_MSG(is_setup(), "RecvBits before Setup");
  const size_t m = choices.size();
  const size_t col_bytes = ColumnBytes(m);
  std::vector<uint8_t> r_bytes = choices.ToBytes();

  std::vector<Block> t_rows;
  {
    obs::TraceSpan span("ot.ext");
    span.AddAttr("transfers", static_cast<double>(m));
    std::vector<std::vector<uint8_t>> t_columns(kOtExtensionWidth);
    for (int i = 0; i < kOtExtensionWidth; ++i) {
      t_columns[i] = column_prgs0_[i].Bytes(col_bytes);
      std::vector<uint8_t> u = column_prgs1_[i].Bytes(col_bytes);
      for (size_t b = 0; b < col_bytes; ++b) {
        u[b] ^= t_columns[i][b] ^ r_bytes[b];
      }
      channel.SendBytes(u);
    }
    t_rows = TransposeRows(t_columns, m);
  }

  // Masked bit pairs arrive packed four transfers per byte.
  std::vector<uint8_t> packed = channel.RecvBytesExpected((m + 3) / 4);
  obs::TraceSpan unmask("ot.ext");
  std::vector<Block> pads = RowPads(t_rows, tweak_);
  BitVec out(m);
  for (size_t j = 0; j < m; ++j) {
    bool choice = choices.Get(j);
    int shift = 2 * (j % 4) + (choice ? 1 : 0);
    bool masked = (packed[j / 4] >> shift) & 1u;
    out.Set(j, masked != pads[j].GetLsb());
  }
  tweak_ += m;
  return out;
}

RandomOtBatch OtExtReceiver::RecvRandom(Channel& channel, Rng& rng,
                                        size_t count) {
  PAFS_CHECK_MSG(is_setup(), "RecvRandom before Setup");
  const size_t m = count;
  const size_t col_bytes = ColumnBytes(m);
  BitVec choices(m);
  for (size_t j = 0; j < m; ++j) choices.Set(j, rng.NextBool());
  std::vector<uint8_t> r_bytes = choices.ToBytes();

  // Same column exchange as Recv, but no masked pairs follow: the hash
  // pads themselves are the output, consumed later by the derandomized
  // transfer in ot/ot_pool.h.
  std::vector<Block> t_rows;
  {
    obs::TraceSpan span("ot.ext.random");
    span.AddAttr("transfers", static_cast<double>(m));
    std::vector<std::vector<uint8_t>> t_columns(kOtExtensionWidth);
    for (int i = 0; i < kOtExtensionWidth; ++i) {
      t_columns[i] = column_prgs0_[i].Bytes(col_bytes);
      std::vector<uint8_t> u = column_prgs1_[i].Bytes(col_bytes);
      for (size_t b = 0; b < col_bytes; ++b) {
        u[b] ^= t_columns[i][b] ^ r_bytes[b];
      }
      channel.SendBytes(u);
    }
    t_rows = TransposeRows(t_columns, m);
  }

  RandomOtBatch batch;
  batch.choices = std::move(choices);
  batch.pads = RowPads(t_rows, tweak_);
  tweak_ += m;
  return batch;
}

void OtExtSender::Send(Channel& channel,
                       const std::vector<std::array<Block, 2>>& messages) {
  PAFS_CHECK_MSG(is_setup(), "Send before Setup");
  // Column receives interleave with the receiver's column sends, so the
  // span's wait share is bounded by the pipelining, not a full phase.
  obs::TraceSpan span("ot.ext");
  if (obs::Enabled()) {
    span.AddAttr("transfers", static_cast<double>(messages.size()));
    static obs::Counter& transfers = obs::GetCounter("ot.ext.transfers");
    transfers.Add(messages.size());
  }
  const size_t m = messages.size();
  const size_t col_bytes = ColumnBytes(m);

  std::vector<std::vector<uint8_t>> q_columns(kOtExtensionWidth);
  for (int i = 0; i < kOtExtensionWidth; ++i) {
    q_columns[i] = column_prgs_[i].Bytes(col_bytes);
    std::vector<uint8_t> u = channel.RecvBytesExpected(col_bytes);
    if (s_bits_.Get(i)) {
      for (size_t b = 0; b < col_bytes; ++b) q_columns[i][b] ^= u[b];
    }
  }

  // Row identity: q_j = t_j ^ (r_j ? s : 0), so H(q_j) masks m0 and
  // H(q_j ^ s) masks m1.
  std::vector<Block> q_rows = TransposeRows(q_columns, m);
  std::vector<Block> pads = RowPadPairs(q_rows, s_block_, tweak_);
  for (size_t j = 0; j < m; ++j) {
    channel.SendBlock(messages[j][0] ^ pads[2 * j]);
    channel.SendBlock(messages[j][1] ^ pads[2 * j + 1]);
  }
  tweak_ += m;
}

void OtExtSender::SendBits(Channel& channel, const BitVec& bits0,
                           const BitVec& bits1) {
  PAFS_CHECK_MSG(is_setup(), "SendBits before Setup");
  PAFS_CHECK_EQ(bits0.size(), bits1.size());
  obs::TraceSpan span("ot.ext");
  if (obs::Enabled()) {
    span.AddAttr("transfers", static_cast<double>(bits0.size()));
    static obs::Counter& transfers = obs::GetCounter("ot.ext.transfers");
    transfers.Add(bits0.size());
  }
  const size_t m = bits0.size();
  const size_t col_bytes = ColumnBytes(m);

  std::vector<std::vector<uint8_t>> q_columns(kOtExtensionWidth);
  for (int i = 0; i < kOtExtensionWidth; ++i) {
    q_columns[i] = column_prgs_[i].Bytes(col_bytes);
    std::vector<uint8_t> u = channel.RecvBytesExpected(col_bytes);
    if (s_bits_.Get(i)) {
      for (size_t b = 0; b < col_bytes; ++b) q_columns[i][b] ^= u[b];
    }
  }

  // Mask each bit pair with the hash pads' low bits; pack 4 pairs/byte.
  std::vector<Block> q_rows = TransposeRows(q_columns, m);
  std::vector<Block> pads = RowPadPairs(q_rows, s_block_, tweak_);
  std::vector<uint8_t> packed((m + 3) / 4, 0);
  for (size_t j = 0; j < m; ++j) {
    bool pad0 = pads[2 * j].GetLsb();
    bool pad1 = pads[2 * j + 1].GetLsb();
    uint8_t pair = static_cast<uint8_t>((bits0.Get(j) != pad0) ? 1 : 0) |
                   static_cast<uint8_t>(((bits1.Get(j) != pad1) ? 1 : 0) << 1);
    packed[j / 4] |= static_cast<uint8_t>(pair << (2 * (j % 4)));
  }
  channel.SendBytes(packed);
  tweak_ += m;
}

std::vector<std::array<Block, 2>> OtExtSender::SendRandom(Channel& channel,
                                                          size_t count) {
  return ExpandRandomColumns(ReceiveRandomColumns(channel, count), count);
}

std::vector<std::vector<uint8_t>> OtExtSender::ReceiveRandomColumns(
    Channel& channel, size_t count) {
  PAFS_CHECK_MSG(is_setup(), "SendRandom before Setup");
  const size_t col_bytes = ColumnBytes(count);
  std::vector<std::vector<uint8_t>> u_columns(kOtExtensionWidth);
  for (int i = 0; i < kOtExtensionWidth; ++i) {
    u_columns[i] = channel.RecvBytesExpected(col_bytes);
  }
  return u_columns;
}

std::vector<std::array<Block, 2>> OtExtSender::ExpandRandomColumns(
    const std::vector<std::vector<uint8_t>>& u_columns, size_t count) {
  PAFS_CHECK_MSG(is_setup(), "ExpandRandomColumns before Setup");
  PAFS_CHECK_EQ(u_columns.size(), static_cast<size_t>(kOtExtensionWidth));
  const size_t m = count;
  const size_t col_bytes = ColumnBytes(m);
  obs::TraceSpan span("ot.ext.random");
  if (obs::Enabled()) {
    span.AddAttr("transfers", static_cast<double>(m));
    static obs::Counter& transfers = obs::GetCounter("ot.ext.transfers");
    transfers.Add(m);
  }

  std::vector<std::vector<uint8_t>> q_columns(kOtExtensionWidth);
  for (int i = 0; i < kOtExtensionWidth; ++i) {
    PAFS_CHECK_EQ(u_columns[i].size(), col_bytes);
    q_columns[i] = column_prgs_[i].Bytes(col_bytes);
    if (s_bits_.Get(i)) {
      for (size_t b = 0; b < col_bytes; ++b) q_columns[i][b] ^= u_columns[i][b];
    }
  }

  std::vector<Block> q_rows = TransposeRows(q_columns, m);
  std::vector<Block> pads = RowPadPairs(q_rows, s_block_, tweak_);
  std::vector<std::array<Block, 2>> out(m);
  for (size_t j = 0; j < m; ++j) {
    out[j] = {pads[2 * j], pads[2 * j + 1]};
  }
  tweak_ += m;
  return out;
}

}  // namespace pafs
