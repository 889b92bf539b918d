// Tests for the network substrate: framing helpers, byte/round accounting,
// blocking semantics across threads, the cost model, and the real socket
// transport (TCP + Unix-domain) that mirrors the in-memory semantics.
#include <unistd.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "bignum/bigint.h"
#include "net/channel.h"
#include "net/fault.h"
#include "net/framing.h"
#include "net/socket.h"
#include "net/throttle.h"
#include "obs/trace.h"
#include "serve/fault_offsets.h"
#include "util/timer.h"

namespace pafs {
namespace {

TEST(MemChannelTest, RoundTripPrimitives) {
  MemChannelPair pair;
  Channel& a = pair.endpoint(0);
  Channel& b = pair.endpoint(1);

  a.SendU64(0xDEADBEEFull);
  EXPECT_EQ(b.RecvU64(), 0xDEADBEEFull);

  Block blk(123, 456);
  a.SendBlock(blk);
  EXPECT_EQ(b.RecvBlock(), blk);

  std::vector<Block> blocks = {Block(1, 2), Block(3, 4), Block(5, 6)};
  a.SendBlocks(blocks);
  EXPECT_EQ(b.RecvBlocks(), blocks);

  BigInt big = BigInt::FromDecimal("123456789012345678901234567890");
  a.SendBigInt(big);
  EXPECT_EQ(b.RecvBigInt(), big);

  std::vector<uint8_t> bytes = {9, 8, 7};
  a.SendBytes(bytes);
  EXPECT_EQ(b.RecvBytes(), bytes);

  std::vector<uint8_t> empty;
  a.SendBytes(empty);
  EXPECT_EQ(b.RecvBytes(), empty);
}

TEST(MemChannelTest, DuplexTraffic) {
  MemChannelPair pair;
  pair.endpoint(0).SendU64(1);
  pair.endpoint(1).SendU64(2);
  EXPECT_EQ(pair.endpoint(1).RecvU64(), 1u);
  EXPECT_EQ(pair.endpoint(0).RecvU64(), 2u);
}

TEST(MemChannelTest, CountsBytes) {
  MemChannelPair pair;
  pair.endpoint(0).SendU64(7);  // 8 bytes
  pair.endpoint(1).RecvU64();
  pair.endpoint(1).SendBlock(Block());  // 16 bytes
  pair.endpoint(0).RecvBlock();
  EXPECT_EQ(pair.TotalBytes(), 24u);
  EXPECT_EQ(pair.endpoint(0).stats().bytes_sent, 8u);
  EXPECT_EQ(pair.endpoint(1).stats().bytes_sent, 16u);
}

TEST(MemChannelTest, CountsDirectionFlips) {
  MemChannelPair pair;
  Channel& a = pair.endpoint(0);
  Channel& b = pair.endpoint(1);
  // a->b, b->a, a->b: a's opening send is free, then each direction change
  // costs one flip — and the two endpoints agree on the count.
  a.SendU64(1);
  b.RecvU64();
  b.SendU64(2);
  a.RecvU64();
  a.SendU64(3);
  b.RecvU64();
  EXPECT_EQ(pair.TotalRounds(), 2u);
  EXPECT_EQ(a.stats().direction_flips, 1u);
  EXPECT_EQ(b.stats().direction_flips, 1u);
}

TEST(MemChannelTest, EndpointFlipCountsStayInParity) {
  // Direction changes alternate between the endpoints (the responder owns
  // change 1, the opener change 2, ...), so the two counters never drift
  // more than one apart and always sum to the wire's total turn changes.
  MemChannelPair pair;
  Channel& a = pair.endpoint(0);
  Channel& b = pair.endpoint(1);
  for (uint64_t round = 0; round < 5; ++round) {
    a.SendU64(round);
    a.SendU64(round);  // Bursts within one turn never flip.
    b.RecvU64();
    b.RecvU64();
    b.SendU64(round);
    a.RecvU64();
  }
  EXPECT_EQ(a.stats().direction_flips, 4u);
  EXPECT_EQ(b.stats().direction_flips, 5u);
  EXPECT_EQ(pair.TotalRounds(), 9u);
  EXPECT_LE(b.stats().direction_flips - a.stats().direction_flips, 1u);
}

TEST(MemChannelTest, FirstSendIsNotAFlip) {
  MemChannelPair pair;
  pair.endpoint(0).SendU64(1);
  pair.endpoint(1).RecvU64();
  EXPECT_EQ(pair.TotalRounds(), 0u);
  // Reset returns the endpoint to the fresh state: the next send opens a
  // new conversation instead of flipping against stale history.
  pair.ResetStats();
  pair.endpoint(1).SendU64(2);
  pair.endpoint(0).RecvU64();
  EXPECT_EQ(pair.TotalRounds(), 0u);
}

TEST(MemChannelTest, ResetClearsStats) {
  MemChannelPair pair;
  pair.endpoint(0).SendU64(7);
  pair.endpoint(1).RecvU64();
  pair.ResetStats();
  EXPECT_EQ(pair.TotalBytes(), 0u);
  EXPECT_EQ(pair.TotalRounds(), 0u);
}

TEST(MemChannelTest, RecvBlocksUntilDataArrives) {
  MemChannelPair pair;
  uint64_t got = 0;
  std::thread reader([&] { got = pair.endpoint(1).RecvU64(); });
  // Give the reader a chance to block, then satisfy it.
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  pair.endpoint(0).SendU64(99);
  reader.join();
  EXPECT_EQ(got, 99u);
}

TEST(NetworkProfileTest, TransferTimeComposition) {
  NetworkProfile lan = LanProfile();
  // Pure-bandwidth component.
  EXPECT_NEAR(lan.TransferSeconds(125000000, 0), 1.0, 1e-9);
  // Pure-latency component: each round costs half an RTT.
  EXPECT_NEAR(lan.TransferSeconds(0, 10), 10 * lan.rtt_seconds / 2, 1e-12);
  // WAN is strictly slower for the same traffic.
  NetworkProfile wan = WanProfile();
  EXPECT_GT(wan.TransferSeconds(1000000, 4), lan.TransferSeconds(1000000, 4));
}

TEST(ThrottledChannelTest, PreservesData) {
  MemChannelPair pair;
  NetworkProfile fast{"fast", 1e9, 0.0};
  ThrottledChannel a(pair.endpoint(0), fast);
  ThrottledChannel b(pair.endpoint(1), fast);
  a.SendU64(777);
  EXPECT_EQ(b.RecvU64(), 777u);
  Block blk(5, 6);
  b.SendBlock(blk);
  EXPECT_EQ(a.RecvBlock(), blk);
}

TEST(ThrottledChannelTest, EmulatesBandwidthDelay) {
  MemChannelPair pair;
  // 1 MB/s, no latency: 100 KB should take ~100 ms (scaled 10x -> ~10 ms).
  NetworkProfile slow{"slow", 1e6, 0.0};
  ThrottledChannel a(pair.endpoint(0), slow, /*time_scale=*/10.0);
  std::vector<uint8_t> payload(100000, 7);
  Timer timer;
  a.SendBytes(payload);
  double elapsed = timer.ElapsedSeconds();
  EXPECT_GE(elapsed, 0.008);
  EXPECT_NEAR(a.emulated_delay_seconds() * 10.0, 0.1, 0.01);
}

TEST(ThrottledChannelTest, ChargesHalfRttPerFlip) {
  MemChannelPair pair;
  NetworkProfile laggy{"laggy", 1e12, 0.020};  // 20 ms RTT, no bandwidth.
  ThrottledChannel a(pair.endpoint(0), laggy, /*time_scale=*/1.0);
  ThrottledChannel b(pair.endpoint(1), laggy, /*time_scale=*/1.0);
  // a: opening send (free), recv, send (flip). b: recv, send (flip), recv.
  a.SendU64(1);
  b.RecvU64();
  b.SendU64(2);
  a.RecvU64();
  a.SendU64(3);
  b.RecvU64();
  EXPECT_NEAR(a.emulated_delay_seconds(), 0.010, 1e-3);  // One flip on a.
  EXPECT_NEAR(b.emulated_delay_seconds(), 0.010, 1e-3);  // One flip on b.
}

TEST(ThrottledChannelTest, WallClockMatchesAnalyticEstimate) {
  // End-to-end check that the emulation agrees with the cost model: a
  // ping-pong exchange over throttled endpoints should take (up to sleep
  // granularity) NetworkProfile::TransferSeconds of the observed traffic.
  MemChannelPair pair;
  NetworkProfile profile{"test-link", 2e6, 0.004};  // 2 MB/s, 4 ms RTT.
  ThrottledChannel a(pair.endpoint(0), profile);
  ThrottledChannel b(pair.endpoint(1), profile);

  std::vector<uint8_t> payload(4000, 0xAB);
  Timer timer;
  std::thread peer([&] {
    for (int i = 0; i < 8; ++i) {
      b.RecvBytes();
      b.SendBytes(payload);
    }
  });
  for (int i = 0; i < 8; ++i) {
    a.SendBytes(payload);
    a.RecvBytes();
  }
  peer.join();
  double wall = timer.ElapsedSeconds();

  double estimate =
      profile.TransferSeconds(pair.TotalBytes(), pair.TotalRounds());
  // The sleeps themselves are exactly the analytic delays, so the two
  // endpoints' totals must reconstruct the estimate almost exactly.
  EXPECT_NEAR(a.emulated_delay_seconds() + b.emulated_delay_seconds(),
              estimate, 0.05 * estimate);
  // Wall-clock adds scheduler overshoot per sleep; the exchange is strictly
  // half-duplex, so it can never beat the estimate.
  EXPECT_GE(wall, 0.95 * estimate);
  EXPECT_LE(wall, 1.5 * estimate + 0.02);
}

TEST(ThrottledChannelTest, SurfacesEmulatedDelayAsSpanAttribute) {
  PafsTelemetry::Reset();
  PafsTelemetry::Enable();
  obs::SetThreadParty("throttle-test");

  MemChannelPair pair;
  NetworkProfile slow{"slow", 1e6, 0.010};  // 1 MB/s, 10 ms RTT.
  ThrottledChannel a(pair.endpoint(0), slow, /*time_scale=*/100.0);
  std::vector<uint8_t> payload(50000, 1);
  {
    obs::TraceSpan span("throttled.send");
    a.SendBytes(payload);
  }
  PafsTelemetry::Disable();

  // The span must carry the channel's accumulated sleep so phase
  // aggregators can separate link time from compute.
  double attr = -1;
  obs::ForEachParty([&](const std::string& party,
                        const std::vector<const obs::PhaseNode*>& roots) {
    if (party != "throttle-test") return;
    ASSERT_EQ(roots.size(), 1u);
    EXPECT_EQ(roots[0]->name, "throttled.send");
    auto it = roots[0]->attrs.find("emulated_delay_seconds");
    ASSERT_NE(it, roots[0]->attrs.end());
    attr = it->second;
  });
  EXPECT_NEAR(attr, a.emulated_delay_seconds(), 1e-12);
  // 50 KB at 1 MB/s, scaled 100x; the opening send pays no half-RTT.
  EXPECT_NEAR(attr, 0.0005, 0.0001);
  PafsTelemetry::Reset();
}

TEST(ChannelLifecycleTest, CloseUnblocksBlockedRecv) {
  MemChannelPair pair;
  std::exception_ptr error;
  std::thread reader([&] {
    try {
      pair.endpoint(1).RecvU64();
    } catch (...) {
      error = std::current_exception();
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  pair.Close();
  reader.join();
  ASSERT_NE(error, nullptr);
  try {
    std::rethrow_exception(error);
  } catch (const ChannelError& e) {
    EXPECT_EQ(e.kind(), ChannelErrorKind::kClosed);
  }
}

TEST(ChannelLifecycleTest, SendOnClosedChannelThrows) {
  MemChannelPair pair;
  pair.Close();
  EXPECT_TRUE(pair.closed());
  EXPECT_THROW(pair.endpoint(0).SendU64(1), ChannelError);
  EXPECT_THROW(pair.endpoint(1).SendU64(1), ChannelError);
}

TEST(ChannelLifecycleTest, RecvDrainsBufferedBytesBeforeFailingClosed) {
  MemChannelPair pair;
  pair.endpoint(0).SendU64(42);
  pair.Close();
  // Bytes delivered before the shutdown stay readable (half-closed
  // socket semantics); only the next starved read fails.
  EXPECT_EQ(pair.endpoint(1).RecvU64(), 42u);
  EXPECT_THROW(pair.endpoint(1).RecvU64(), ChannelError);
}

TEST(ChannelLifecycleTest, RecvDeadlineThrowsTimeout) {
  MemChannelPair pair;
  pair.endpoint(1).set_recv_timeout_seconds(0.02);
  Timer timer;
  try {
    pair.endpoint(1).RecvU64();
    FAIL() << "expected ChannelError";
  } catch (const ChannelError& e) {
    EXPECT_EQ(e.kind(), ChannelErrorKind::kTimeout);
  }
  EXPECT_GE(timer.ElapsedSeconds(), 0.015);
  // A satisfied Recv under the same deadline still works.
  pair.endpoint(0).SendU64(5);
  EXPECT_EQ(pair.endpoint(1).RecvU64(), 5u);
}

TEST(WireHardeningTest, OversizeLengthPrefixRejected) {
  MemChannelPair pair;
  // A corrupt length prefix claiming ~2^60 bytes must be rejected before
  // any allocation, with the payload never consumed.
  pair.endpoint(0).SendU64(1ull << 60);
  EXPECT_THROW(pair.endpoint(1).RecvBytes(), ProtocolError);
  pair.endpoint(0).SendU64(1ull << 60);
  EXPECT_THROW(pair.endpoint(1).RecvBlocks(), ProtocolError);
}

TEST(WireHardeningTest, CustomCapApplies) {
  MemChannelPair pair;
  pair.endpoint(1).set_max_message_bytes(16);
  std::vector<uint8_t> small(16, 1);
  pair.endpoint(0).SendBytes(small);
  EXPECT_EQ(pair.endpoint(1).RecvBytes(), small);
  std::vector<uint8_t> big(17, 1);
  pair.endpoint(0).SendBytes(big);
  EXPECT_THROW(pair.endpoint(1).RecvBytes(), ProtocolError);
}

TEST(WireHardeningTest, ExpectedSizeMismatchRejected) {
  // A rejected prefix leaves the payload unread (the error is raised
  // before any payload byte is consumed), so each case gets a fresh pair.
  {
    MemChannelPair pair;
    pair.endpoint(0).SendBytes(std::vector<uint8_t>(10, 2));
    EXPECT_THROW(pair.endpoint(1).RecvBytesExpected(11), ProtocolError);
  }
  {
    MemChannelPair pair;
    pair.endpoint(0).SendBlocks(std::vector<Block>(3));
    EXPECT_THROW(pair.endpoint(1).RecvBlocksExpected(4), ProtocolError);
  }
  // Matching sizes pass through untouched.
  MemChannelPair pair;
  std::vector<Block> blocks = {Block(7, 8), Block(9, 10)};
  pair.endpoint(0).SendBlocks(blocks);
  EXPECT_EQ(pair.endpoint(1).RecvBlocksExpected(2), blocks);
}

TEST(FramedChannelTest, RoundTripsThroughFraming) {
  MemChannelPair pair;
  FramedChannel a(pair.endpoint(0));
  FramedChannel b(pair.endpoint(1));
  // Each sender flushes: no Recv of its own carries its flight out.
  a.SendU64(123);
  a.Flush();
  EXPECT_EQ(b.RecvU64(), 123u);
  std::vector<uint8_t> payload(1000, 0x5C);
  b.SendBytes(payload);
  b.Flush();
  EXPECT_EQ(a.RecvBytes(), payload);
  // Partial reads across frame boundaries reassemble correctly.
  a.SendU64(1);
  a.Flush();
  a.SendU64(2);
  a.Flush();
  EXPECT_EQ(b.RecvU64(), 1u);
  EXPECT_EQ(b.RecvU64(), 2u);
}

TEST(FramedChannelTest, FlightLeavesAsOneInnerSend) {
  MemChannelPair pair;
  FramedChannel a(pair.endpoint(0));
  FramedChannel b(pair.endpoint(1));
  b.SendU64(99);
  b.Flush();
  const std::vector<uint8_t> payload(300, 0x6D);
  for (uint64_t i = 0; i < 5; ++i) a.SendU64(i);
  a.SendBytes(payload);
  EXPECT_EQ(pair.endpoint(0).stats().messages_sent, 0u);  // Held back.
  EXPECT_EQ(a.pending_bytes(), 5 * 8 + 8 + payload.size());
  // The Recv ends the flight: everything above goes out as one frame.
  EXPECT_EQ(a.RecvU64(), 99u);
  EXPECT_EQ(pair.endpoint(0).stats().messages_sent, kFrameSends);
  EXPECT_EQ(a.pending_bytes(), 0u);
  for (uint64_t i = 0; i < 5; ++i) EXPECT_EQ(b.RecvU64(), i);
  EXPECT_EQ(b.RecvBytes(), payload);
}

TEST(FramedChannelTest, CloseFlushesThePendingFlight) {
  MemChannelPair pair;
  FramedChannel a(pair.endpoint(0));
  FramedChannel b(pair.endpoint(1));
  a.SendU64(0xB7E);
  a.Close();
  // Drain-first close semantics: the flight arrives, then kClosed.
  EXPECT_EQ(b.RecvU64(), 0xB7Eu);
  try {
    b.RecvU64();
    FAIL() << "expected ChannelError";
  } catch (const ChannelError& e) {
    EXPECT_EQ(e.kind(), ChannelErrorKind::kClosed);
  }
}

TEST(FramedChannelTest, LargeFlightSplitsIntoCrcCheckedFrames) {
  MemChannelPair pair;
  FramedChannel a(pair.endpoint(0));
  constexpr size_t kMax = FramedChannel::kMaxFramePayload;
  std::vector<uint8_t> payload(2 * kMax + 100);
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<uint8_t>(i * 131 + 7);
  }
  a.SendU64(42);
  a.SendBytes(payload);
  // Two full frames left while the flight grew; the rest waits.
  EXPECT_EQ(pair.endpoint(0).stats().messages_sent, 2u);
  EXPECT_EQ(a.pending_bytes(), 8 + 8 + payload.size() - 2 * kMax);
  a.Flush();
  ASSERT_EQ(pair.endpoint(0).stats().messages_sent, 3u);

  // Read the frames raw: bounded lengths, valid CRCs, payload intact.
  Channel& raw = pair.endpoint(1);
  std::vector<uint8_t> stream;
  std::vector<uint32_t> lengths;
  for (int f = 0; f < 3; ++f) {
    uint8_t header[8];
    raw.Recv(header, 8);
    uint32_t len = 0;
    uint32_t crc = 0;
    for (int i = 0; i < 4; ++i) {
      len |= static_cast<uint32_t>(header[i]) << (8 * i);
      crc |= static_cast<uint32_t>(header[4 + i]) << (8 * i);
    }
    std::vector<uint8_t> body(len);
    raw.Recv(body.data(), len);
    EXPECT_EQ(Crc32(body.data(), len), crc) << "frame " << f;
    lengths.push_back(len);
    stream.insert(stream.end(), body.begin(), body.end());
  }
  EXPECT_EQ(lengths, (std::vector<uint32_t>{
                         kMax, kMax, static_cast<uint32_t>(16 + 100)}));
  std::vector<uint8_t> want(16);
  want[0] = 42;  // SendU64(42), then SendBytes' little-endian length.
  for (int i = 0; i < 8; ++i) {
    want[8 + i] = static_cast<uint8_t>(payload.size() >> (8 * i));
  }
  want.insert(want.end(), payload.begin(), payload.end());
  EXPECT_EQ(stream, want);
}

TEST(FramedChannelTest, DecodesOneFramePerSendAsOlderPeersWrite) {
  // Before flights, framing wrote every logical Send as its own frame;
  // the same wire format means today's reader still decodes that stream.
  MemChannelPair pair;
  auto send_frame = [&](const std::vector<uint8_t>& payload) {
    std::vector<uint8_t> frame(8);
    const uint32_t len = static_cast<uint32_t>(payload.size());
    const uint32_t crc = Crc32(payload.data(), payload.size());
    for (int i = 0; i < 4; ++i) {
      frame[i] = static_cast<uint8_t>(len >> (8 * i));
      frame[4 + i] = static_cast<uint8_t>(crc >> (8 * i));
    }
    frame.insert(frame.end(), payload.begin(), payload.end());
    pair.endpoint(0).Send(frame.data(), frame.size());
  };
  auto u64 = [](uint64_t v) {
    std::vector<uint8_t> out(8);
    for (int i = 0; i < 8; ++i) out[i] = static_cast<uint8_t>(v >> (8 * i));
    return out;
  };
  const std::vector<uint8_t> body(777, 0x2B);
  send_frame(u64(5));            // SendU64(5).
  send_frame(u64(body.size()));  // SendBytes(body): the length prefix...
  send_frame(body);              // ...then the body.
  send_frame(u64(6));
  FramedChannel b(pair.endpoint(1));
  EXPECT_EQ(b.RecvU64(), 5u);
  EXPECT_EQ(b.RecvBytes(), body);
  EXPECT_EQ(b.RecvU64(), 6u);
}

TEST(FramedChannelTest, DetectsCorruption) {
  MemChannelPair pair;
  FaultPlan plan;
  plan.kind = FaultKind::kCorrupt;
  plan.seed = 11;
  // The payload's flight: its one frame carries prefix and body alike.
  plan.first_op = kFrameSends - 1;
  plan.max_faults = 1;
  FaultInjector injector(plan);
  FaultInjectingChannel faulty(pair.endpoint(0), injector);
  FramedChannel a(faulty);
  FramedChannel b(pair.endpoint(1));
  pair.endpoint(1).set_recv_timeout_seconds(0.2);  // Hang guard.
  // Large payload so the seeded bit flips land in the body, not the
  // 8-byte frame header: the CRC check must reject the frame.
  std::vector<uint8_t> payload(4096, 0x3A);
  a.SendBytes(payload);
  a.Flush();
  EXPECT_THROW(b.RecvBytes(), ProtocolError);
  EXPECT_EQ(injector.injected(), 1u);
  // The budget is spent: the next frame arrives intact.
  a.SendU64(0xABCDEF);
  a.Flush();
  EXPECT_EQ(b.RecvU64(), 0xABCDEFu);
}

TEST(FaultInjectorTest, DeterministicSchedule) {
  FaultPlan plan;
  plan.kind = FaultKind::kDrop;
  plan.seed = 99;
  plan.probability = 0.5;
  plan.max_faults = 0;  // Unlimited.
  // Same seed, same schedule — op-for-op.
  FaultInjector x(plan), y(plan);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(x.NextSendFault(64), y.NextSendFault(64)) << "op " << i;
  }
  EXPECT_EQ(x.injected(), y.injected());
  EXPECT_GT(x.injected(), 0u);
}

TEST(FaultInjectorTest, HonorsFirstOpAndBudget) {
  FaultPlan plan;
  plan.kind = FaultKind::kDrop;
  plan.seed = 7;
  plan.probability = 1.0;
  plan.first_op = 3;
  plan.max_faults = 2;
  FaultInjector injector(plan);
  std::vector<FaultKind> got;
  for (int i = 0; i < 8; ++i) got.push_back(injector.NextSendFault(64));
  // Ops 0-2 are protected, ops 3-4 fire, then the budget is exhausted.
  for (int i = 0; i < 3; ++i) EXPECT_EQ(got[i], FaultKind::kNone);
  EXPECT_EQ(got[3], FaultKind::kDrop);
  EXPECT_EQ(got[4], FaultKind::kDrop);
  for (int i = 5; i < 8; ++i) EXPECT_EQ(got[i], FaultKind::kNone);
  EXPECT_EQ(injector.injected(), 2u);
}

TEST(FaultInjectorTest, TargetLenFiresOnlyOnMatchingSends) {
  FaultPlan plan;
  plan.kind = FaultKind::kDrop;
  plan.seed = 7;
  plan.probability = 1.0;
  plan.max_faults = 1;
  plan.target_len = 64;  // A resume hello's flight size.
  FaultInjector injector(plan);
  // Non-matching sends never fault and never spend the budget.
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(injector.NextSendFault(16), FaultKind::kNone);
  }
  EXPECT_EQ(injector.injected(), 0u);
  EXPECT_EQ(injector.NextSendFault(64), FaultKind::kDrop);
  EXPECT_EQ(injector.injected(), 1u);
  // Budget spent: even matching sends pass through now.
  EXPECT_EQ(injector.NextSendFault(64), FaultKind::kNone);
}

// ---------------------------------------------------------------------------
// Real socket transport. Every test runs on loopback (TCP ephemeral port)
// or a per-process UDS path, so suites can run in parallel.

std::string UdsPath(const char* tag) {
  return "/tmp/pafs_net_test_" + std::string(tag) + "_" +
         std::to_string(::getpid()) + ".sock";
}

struct ConnectedSockets {
  std::unique_ptr<SocketChannel> server;
  std::unique_ptr<SocketChannel> client;
};

ConnectedSockets MakeConnectedPair(const SocketAddress& address) {
  SocketListener listener = SocketListener::Listen(address);
  ConnectedSockets pair;
  std::thread connector(
      [&] { pair.client = SocketConnect(listener.local_address(), 2.0); });
  pair.server = listener.Accept(2.0);
  connector.join();
  EXPECT_NE(pair.server, nullptr);
  EXPECT_NE(pair.client, nullptr);
  return pair;
}

TEST(SocketAddressTest, ParseRoundTrips) {
  auto tcp = SocketAddress::Parse("tcp:127.0.0.1:9000");
  ASSERT_TRUE(tcp.ok()) << tcp.status().message();
  EXPECT_EQ(tcp.value().family, SocketAddress::Family::kTcp);
  EXPECT_EQ(tcp.value().host, "127.0.0.1");
  EXPECT_EQ(tcp.value().port, 9000);
  EXPECT_EQ(tcp.value().ToString(), "tcp:127.0.0.1:9000");

  auto uds = SocketAddress::Parse("unix:/tmp/pafs.sock");
  ASSERT_TRUE(uds.ok());
  EXPECT_EQ(uds.value().family, SocketAddress::Family::kUnix);
  EXPECT_EQ(uds.value().path, "/tmp/pafs.sock");
  EXPECT_EQ(uds.value().ToString(), "unix:/tmp/pafs.sock");

  EXPECT_FALSE(SocketAddress::Parse("tcp:nohost").ok());
  EXPECT_FALSE(SocketAddress::Parse("tcp:1.2.3.4:notaport").ok());
  EXPECT_FALSE(SocketAddress::Parse("tcp:1.2.3.4:70000").ok());
  EXPECT_FALSE(SocketAddress::Parse("carrier-pigeon:coop").ok());
  EXPECT_FALSE(SocketAddress::Parse("unix:").ok());
}

class SocketChannelTest : public ::testing::TestWithParam<bool> {
 protected:
  SocketAddress Address(const char* tag) const {
    return GetParam() ? SocketAddress::Unix(UdsPath(tag))
                      : SocketAddress::Tcp("127.0.0.1", 0);
  }
};

TEST_P(SocketChannelTest, RoundTripPrimitivesAndStats) {
  ConnectedSockets pair = MakeConnectedPair(Address("roundtrip"));
  Channel& a = *pair.client;
  Channel& b = *pair.server;

  a.SendU64(0xFEEDFACEull);
  EXPECT_EQ(b.RecvU64(), 0xFEEDFACEull);
  b.SendU64(7);
  EXPECT_EQ(a.RecvU64(), 7u);

  std::vector<Block> blocks = {Block(1, 2), Block(3, 4)};
  a.SendBlocks(blocks);
  EXPECT_EQ(b.RecvBlocks(), blocks);

  std::vector<uint8_t> bytes = {5, 4, 3, 2, 1};
  b.SendBytes(bytes);
  EXPECT_EQ(a.RecvBytes(), bytes);

  // Both directions counted, and the half-duplex flip accounting matches
  // the in-memory channel's convention (opening send is free).
  EXPECT_GT(a.stats().bytes_sent, 0u);
  EXPECT_GT(a.stats().bytes_received, 0u);
  EXPECT_EQ(a.stats().bytes_sent, b.stats().bytes_received);
  EXPECT_EQ(b.stats().bytes_sent, a.stats().bytes_received);
  EXPECT_EQ(a.stats().direction_flips + b.stats().direction_flips, 3u);
}

TEST_P(SocketChannelTest, LargeTransferLoopsPartialIo) {
  // Well past any kernel socket buffer: Send must loop over partial
  // writes while the peer drains, and Recv must reassemble exactly.
  ConnectedSockets pair = MakeConnectedPair(Address("large"));
  std::vector<uint8_t> payload(8 << 20);
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<uint8_t>(i * 2654435761u >> 24);
  }
  std::thread sender([&] { pair.client->SendBytes(payload); });
  std::vector<uint8_t> got = pair.server->RecvBytes();
  sender.join();
  EXPECT_EQ(got, payload);
}

TEST_P(SocketChannelTest, RecvDeadlineThrowsTimeout) {
  ConnectedSockets pair = MakeConnectedPair(Address("deadline"));
  pair.server->set_recv_timeout_seconds(0.05);
  Timer timer;
  try {
    pair.server->RecvU64();
    FAIL() << "expected ChannelError";
  } catch (const ChannelError& e) {
    EXPECT_EQ(e.kind(), ChannelErrorKind::kTimeout);
  }
  EXPECT_GE(timer.ElapsedSeconds(), 0.04);
  // The channel survives a timeout; a satisfied Recv still works.
  pair.client->SendU64(11);
  EXPECT_EQ(pair.server->RecvU64(), 11u);
}

TEST_P(SocketChannelTest, SendToStalledPeerTimesOut) {
  // A peer that never reads eventually fills both kernel buffers; the
  // blocked Send must fail typed instead of wedging the worker.
  ConnectedSockets pair = MakeConnectedPair(Address("stall"));
  pair.client->set_recv_timeout_seconds(0.1);
  std::vector<uint8_t> payload(64 << 20, 0x77);
  EXPECT_THROW(pair.client->SendBytes(payload), ChannelError);
}

TEST_P(SocketChannelTest, CrossThreadCloseUnblocksRecv) {
  ConnectedSockets pair = MakeConnectedPair(Address("close"));
  std::exception_ptr error;
  std::thread reader([&] {
    try {
      pair.server->RecvU64();
    } catch (...) {
      error = std::current_exception();
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  pair.server->Close();  // Supervisor idiom: close from another thread.
  reader.join();
  ASSERT_NE(error, nullptr);
  try {
    std::rethrow_exception(error);
  } catch (const ChannelError& e) {
    EXPECT_EQ(e.kind(), ChannelErrorKind::kClosed);
  }
}

TEST_P(SocketChannelTest, PeerCloseDrainsBufferedBytesThenFailsClosed) {
  ConnectedSockets pair = MakeConnectedPair(Address("drain"));
  pair.client->SendU64(42);
  pair.client->Close();
  pair.server->set_recv_timeout_seconds(1.0);
  // Half-closed-socket semantics: delivered bytes stay readable, the
  // starved read after them fails kClosed (not kTimeout).
  EXPECT_EQ(pair.server->RecvU64(), 42u);
  try {
    pair.server->RecvU64();
    FAIL() << "expected ChannelError";
  } catch (const ChannelError& e) {
    EXPECT_EQ(e.kind(), ChannelErrorKind::kClosed);
  }
}

TEST_P(SocketChannelTest, FramedChannelComposesOverTheWire) {
  ConnectedSockets pair = MakeConnectedPair(Address("framed"));
  FramedChannel a(*pair.client);
  FramedChannel b(*pair.server);
  a.SendU64(321);
  a.Flush();
  EXPECT_EQ(b.RecvU64(), 321u);
  std::vector<uint8_t> payload(100000, 0xC3);
  b.SendBytes(payload);
  b.Flush();
  EXPECT_EQ(a.RecvBytes(), payload);
}

INSTANTIATE_TEST_SUITE_P(Families, SocketChannelTest, ::testing::Bool(),
                         [](const auto& info) {
                           return info.param ? std::string("Unix")
                                             : std::string("Tcp");
                         });

TEST(SocketListenerTest, AcceptTimeoutReturnsNull) {
  SocketListener listener =
      SocketListener::Listen(SocketAddress::Tcp("127.0.0.1", 0));
  Timer timer;
  EXPECT_EQ(listener.Accept(0.05), nullptr);
  EXPECT_GE(timer.ElapsedSeconds(), 0.04);
  EXPECT_EQ(listener.TryAccept(), nullptr);
}

TEST(SocketListenerTest, CloseUnblocksAccept) {
  SocketListener listener =
      SocketListener::Listen(SocketAddress::Tcp("127.0.0.1", 0));
  std::exception_ptr error;
  std::thread acceptor([&] {
    try {
      listener.Accept(5.0);
    } catch (...) {
      error = std::current_exception();
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  listener.Close();
  acceptor.join();
  ASSERT_NE(error, nullptr);
  EXPECT_THROW(std::rethrow_exception(error), ChannelError);
}

TEST(SocketListenerTest, UnixListenerReplacesStaleSocketFile) {
  std::string path = UdsPath("stale");
  {
    SocketListener first = SocketListener::Listen(SocketAddress::Unix(path));
  }
  // The destructor unlinked the path; and even a stale leftover file from
  // a crashed process must not block a fresh bind.
  SocketListener second = SocketListener::Listen(SocketAddress::Unix(path));
  EXPECT_EQ(second.local_address().path, path);
}

TEST(SocketConnectTest, RefusedConnectFailsTyped) {
  // Grab an ephemeral port, then free it: the connect must be refused.
  uint16_t port;
  {
    SocketListener listener =
        SocketListener::Listen(SocketAddress::Tcp("127.0.0.1", 0));
    port = listener.local_address().port;
  }
  EXPECT_THROW(SocketConnect(SocketAddress::Tcp("127.0.0.1", port), 1.0),
               ChannelError);
  EXPECT_THROW(SocketConnect(SocketAddress::Unix(UdsPath("absent")), 1.0),
               TransportError);
}

TEST(FaultInjectorTest, DropLosesMessageAndTimeoutSurfacesIt) {
  MemChannelPair pair;
  FaultPlan plan;
  plan.kind = FaultKind::kDrop;
  plan.seed = 3;
  plan.max_faults = 1;
  FaultInjector injector(plan);
  FaultInjectingChannel a(pair.endpoint(0), injector);
  pair.endpoint(1).set_recv_timeout_seconds(0.02);
  a.SendU64(1);  // Dropped.
  try {
    pair.endpoint(1).RecvU64();
    FAIL() << "expected timeout";
  } catch (const ChannelError& e) {
    EXPECT_EQ(e.kind(), ChannelErrorKind::kTimeout);
  }
}

}  // namespace
}  // namespace pafs
