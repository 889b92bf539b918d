// Tests for oblivious transfer: base OT correctness, IKNP extension
// correctness across repeated batches, and the obliviousness sanity checks
// that are observable from the transcripts.
#include <array>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "net/channel.h"
#include "net/error.h"
#include "ot/base_ot.h"
#include "ot/iknp.h"
#include "ot/ot_pool.h"
#include "util/bitvec.h"
#include "util/random.h"

namespace pafs {
namespace {

TEST(BaseOtTest, ReceiverLearnsChosenMessage) {
  MemChannelPair pair;
  Rng sender_rng(1), receiver_rng(2);

  const int n = 8;
  std::vector<std::array<Block, 2>> messages(n);
  for (int i = 0; i < n; ++i) {
    messages[i] = {Block(100 + i, 0), Block(200 + i, 0)};
  }
  BitVec choices = BitVec::FromString("01101001");

  std::vector<Block> received;
  std::thread sender(
      [&] { BaseOtSend(pair.endpoint(0), messages, sender_rng); });
  received = BaseOtRecv(pair.endpoint(1), choices, receiver_rng);
  sender.join();

  ASSERT_EQ(received.size(), static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(received[i], messages[i][choices.Get(i) ? 1 : 0]) << i;
  }
}

TEST(BaseOtTest, EmptyBatchIsFine) {
  MemChannelPair pair;
  Rng sender_rng(1), receiver_rng(2);
  std::vector<std::array<Block, 2>> messages;
  std::thread sender(
      [&] { BaseOtSend(pair.endpoint(0), messages, sender_rng); });
  std::vector<Block> received =
      BaseOtRecv(pair.endpoint(1), BitVec(0), receiver_rng);
  sender.join();
  EXPECT_TRUE(received.empty());
}

TEST(BaseOtTest, ExtensionSetupTakesOneFlipPerSide) {
  // Three flights whatever the batch size: the client's A (one point), the
  // server's B_j (one point each) in one frame, then both masked seeds of
  // every base OT in one frame. Each side sends after receiving once.
  MemChannelPair pair;
  Rng sender_rng(11), receiver_rng(22);
  OtExtSender sender;
  OtExtReceiver receiver;
  std::thread sender_thread(
      [&] { sender.Setup(pair.endpoint(0), sender_rng); });
  receiver.Setup(pair.endpoint(1), receiver_rng);
  sender_thread.join();

  const ChannelStats& server = pair.endpoint(0).stats();
  const ChannelStats& client = pair.endpoint(1).stats();
  EXPECT_EQ(server.direction_flips, 1u);
  EXPECT_EQ(client.direction_flips, 1u);
  constexpr uint64_t kPointBytes = 64;
  constexpr uint64_t kLengthBytes = 8;
  EXPECT_EQ(client.bytes_sent, kLengthBytes + kPointBytes + kLengthBytes +
                                   2 * kOtExtensionWidth * sizeof(Block));
  EXPECT_EQ(server.bytes_sent, kLengthBytes + kOtExtensionWidth * kPointBytes);
  EXPECT_EQ(server.bytes_received, client.bytes_sent);
  EXPECT_EQ(client.bytes_received, server.bytes_sent);
}

class IknpTest : public ::testing::Test {
 protected:
  // Runs Setup once on a fresh channel pair; individual tests then push one
  // or more extension batches through the session.
  void SetUpSessions() {
    std::thread sender_thread(
        [&] { sender_.Setup(pair_.endpoint(0), sender_rng_); });
    receiver_.Setup(pair_.endpoint(1), receiver_rng_);
    sender_thread.join();
  }

  void RunBatch(size_t m, uint64_t tag) {
    std::vector<std::array<Block, 2>> messages(m);
    for (size_t i = 0; i < m; ++i) {
      messages[i] = {Block(tag * 1000 + i, 0), Block(tag * 1000 + i, 1)};
    }
    BitVec choices(m);
    for (size_t i = 0; i < m; ++i) choices.Set(i, choice_rng_.NextBool());

    std::vector<Block> received;
    std::thread sender_thread(
        [&] { sender_.Send(pair_.endpoint(0), messages); });
    received = receiver_.Recv(pair_.endpoint(1), choices);
    sender_thread.join();

    ASSERT_EQ(received.size(), m);
    for (size_t i = 0; i < m; ++i) {
      EXPECT_EQ(received[i], messages[i][choices.Get(i) ? 1 : 0])
          << "batch " << tag << " index " << i;
    }
  }

  MemChannelPair pair_;
  Rng sender_rng_{11}, receiver_rng_{22}, choice_rng_{33};
  OtExtSender sender_;
  OtExtReceiver receiver_;
};

TEST_F(IknpTest, SingleBatch) {
  SetUpSessions();
  RunBatch(64, 1);
}

TEST_F(IknpTest, LargeBatch) {
  SetUpSessions();
  RunBatch(1000, 1);
}

TEST_F(IknpTest, NonByteAlignedBatch) {
  SetUpSessions();
  RunBatch(13, 1);
}

TEST_F(IknpTest, RepeatedBatchesStayInSync) {
  // The whole point of the session design: base OTs amortize across many
  // extension calls, so streams must stay aligned batch after batch.
  SetUpSessions();
  RunBatch(50, 1);
  RunBatch(7, 2);
  RunBatch(128, 3);
  RunBatch(1, 4);
}

TEST_F(IknpTest, SetupCostIsAmortized) {
  SetUpSessions();
  uint64_t bytes_after_setup = pair_.TotalBytes();
  RunBatch(256, 1);
  uint64_t batch_bytes = pair_.TotalBytes() - bytes_after_setup;
  // Setup moves 129 points (64B each) and two blocks per base OT, ~97B per
  // base OT; extension moves ~32B per transfer plus column traffic. Per
  // transfer, the extension must be far cheaper than a base OT.
  EXPECT_LT(batch_bytes / 256, bytes_after_setup / kOtExtensionWidth);
}

// ---------------------------------------------------------------------------
// Random OTs and the pad pools (the offline half of the OT split).

class OtPoolTest : public IknpTest {
 protected:
  // One SendRandom/RecvRandom exchange of `count`, appended to the pools.
  void FillPools(OtSenderPadPool& spool, OtReceiverPadPool& rpool,
                 size_t count) {
    std::thread sender_thread(
        [&] { spool.Append(sender_.SendRandom(pair_.endpoint(0), count)); });
    rpool.Append(receiver_.RecvRandom(pair_.endpoint(1), choice_rng_, count));
    sender_thread.join();
  }

  // One derandomized transfer of `m` tagged messages through the pools;
  // checks the receiver learns exactly messages[choices].
  void RunPooled(size_t m, uint64_t tag, OtSenderPadPool* spool,
                 OtReceiverPadPool* rpool) {
    std::vector<std::array<Block, 2>> messages(m);
    for (size_t i = 0; i < m; ++i) {
      messages[i] = {Block(tag * 1000 + i, 0), Block(tag * 1000 + i, 1)};
    }
    BitVec choices(m);
    for (size_t i = 0; i < m; ++i) choices.Set(i, choice_rng_.NextBool());
    std::vector<Block> received;
    std::thread sender_thread([&] {
      PooledOtSend(pair_.endpoint(0), sender_, messages, spool);
    });
    received = PooledOtRecv(pair_.endpoint(1), receiver_, choices, rpool);
    sender_thread.join();
    ASSERT_EQ(received.size(), m);
    for (size_t i = 0; i < m; ++i) {
      EXPECT_EQ(received[i], messages[i][choices.Get(i) ? 1 : 0])
          << "pooled batch " << tag << " index " << i;
    }
  }
};

TEST_F(OtPoolTest, RandomOtPadsMatchChoices) {
  // The random-OT invariant everything else builds on: the receiver's one
  // pad equals the sender's pad for the receiver's choice bit.
  SetUpSessions();
  std::vector<std::array<Block, 2>> sent;
  RandomOtBatch batch;
  std::thread sender_thread(
      [&] { sent = sender_.SendRandom(pair_.endpoint(0), 77); });
  batch = receiver_.RecvRandom(pair_.endpoint(1), choice_rng_, 77);
  sender_thread.join();
  ASSERT_EQ(sent.size(), 77u);
  ASSERT_EQ(batch.pads.size(), 77u);
  for (size_t j = 0; j < 77; ++j) {
    EXPECT_EQ(batch.pads[j], sent[j][batch.choices.Get(j) ? 1 : 0]) << j;
  }
}

TEST_F(OtPoolTest, PooledTransferEqualsDirectAndFallsBackWhenDry) {
  SetUpSessions();
  OtSenderPadPool spool(64);
  OtReceiverPadPool rpool(64);
  FillPools(spool, rpool, 64);
  RunPooled(50, 1, &spool, &rpool);  // Warm: spends 50 pads per side.
  EXPECT_EQ(spool.stats().hits, 50u);
  EXPECT_EQ(rpool.stats().hits, 50u);
  // 30 > the 14 remaining: the receiver announces 0 and both sides fall
  // back to the online extension — still correct, counted as misses.
  RunPooled(30, 2, &spool, &rpool);
  EXPECT_EQ(rpool.stats().misses, 30u);
  EXPECT_EQ(spool.depth(), 14u);  // Fallback spends no sender pads.
  // The streams stay aligned across the mix: pooled again afterwards.
  RunPooled(14, 3, &spool, &rpool);
  EXPECT_EQ(rpool.stats().hits, 64u);
}

TEST_F(OtPoolTest, SplitReceiveThenMaterializeMatchesEagerExpansion) {
  // The idle-worker split: park raw u columns, expand later. The pads must
  // land exactly where an eager SendRandom would have put the stream.
  SetUpSessions();
  OtSenderPadPool spool(32);
  OtReceiverPadPool rpool(32);
  std::thread sender_thread([&] {
    spool.AddPending(32, sender_.ReceiveRandomColumns(pair_.endpoint(0), 32));
  });
  rpool.Append(receiver_.RecvRandom(pair_.endpoint(1), choice_rng_, 32));
  sender_thread.join();
  EXPECT_TRUE(spool.HasPending());
  EXPECT_EQ(spool.depth(), 0u);
  EXPECT_EQ(spool.Deficit(), 0u);  // Pending counts toward the target.
  EXPECT_EQ(spool.Materialize(sender_), 32u);
  EXPECT_EQ(spool.depth(), 32u);
  RunPooled(32, 1, &spool, &rpool);
}

TEST_F(OtPoolTest, PoolsResumeFromSnapshotsMidStream) {
  // Serving-layer resumption shape: pools and OT endpoints are snapshot
  // together mid-stream (pending columns still raw) and the restored pair
  // continues the derandomized stream with zero new base OTs.
  SetUpSessions();
  OtSenderPadPool spool(48);
  OtReceiverPadPool rpool(48);
  FillPools(spool, rpool, 24);
  std::thread sender_thread([&] {
    spool.AddPending(24, sender_.ReceiveRandomColumns(pair_.endpoint(0), 24));
  });
  rpool.Append(receiver_.RecvRandom(pair_.endpoint(1), choice_rng_, 24));
  sender_thread.join();
  RunPooled(10, 1, &spool, &rpool);  // Advance head_seq past zero.

  const OtExtSender sender_snapshot = sender_;
  const OtExtReceiver receiver_snapshot = receiver_;
  const OtSenderPadPool::State spool_snapshot = spool.snapshot();
  const OtReceiverPadPool::State rpool_snapshot = rpool.snapshot();

  sender_ = sender_snapshot;
  receiver_ = receiver_snapshot;
  OtSenderPadPool spool2(48);
  OtReceiverPadPool rpool2(48);
  spool2.Restore(spool_snapshot);
  rpool2.Restore(rpool_snapshot);
  EXPECT_TRUE(spool2.HasPending());
  EXPECT_EQ(spool2.Materialize(sender_), 24u);
  RunPooled(38, 2, &spool2, &rpool2);  // 14 ready + 24 materialized.
  EXPECT_EQ(spool2.depth(), 0u);
  EXPECT_EQ(rpool2.depth(), 0u);
}

TEST_F(OtPoolTest, SequenceSkewIsATypedDesync) {
  SetUpSessions();
  OtSenderPadPool spool(8);
  OtReceiverPadPool rpool(8);
  FillPools(spool, rpool, 8);
  // Hand-craft a receiver announcement whose start sequence the sender's
  // pool is not at: lockstep streams make this corruption, not a miss.
  Channel& rch = pair_.endpoint(1);
  rch.SendU64(4);                          // pooled count
  rch.SendU64(5);                          // skewed start_seq (pool is at 0)
  rch.SendBytes(std::vector<uint8_t>{0});  // packed corrections
  std::vector<std::array<Block, 2>> messages(
      4, std::array<Block, 2>{Block(1, 2), Block(3, 4)});
  EXPECT_THROW(PooledOtSend(pair_.endpoint(0), sender_, messages, &spool),
               ProtocolError);
}

TEST_F(OtPoolTest, CountMismatchIsATypedError) {
  SetUpSessions();
  OtSenderPadPool spool(8);
  OtReceiverPadPool rpool(8);
  FillPools(spool, rpool, 8);
  Channel& rch = pair_.endpoint(1);
  rch.SendU64(3);  // Announces 3 pooled transfers; the sender expects 4.
  std::vector<std::array<Block, 2>> messages(
      4, std::array<Block, 2>{Block(1, 2), Block(3, 4)});
  EXPECT_THROW(PooledOtSend(pair_.endpoint(0), sender_, messages, &spool),
               ProtocolError);
}

}  // namespace
}  // namespace pafs
