// Chaos suite: every protocol backend runs against every fault kind at
// deterministic seed-driven injection points. The contract under test is
// the fault-tolerance invariant from DESIGN.md: a faulted run ends in a
// *typed* transport error or a *correct* result within the watchdog
// deadline — never a hang, never silently wrong outputs. Delay faults
// (and clean runs) must always succeed.
//
// Stack per run: the injecting (client) endpoint is wrapped in
// FaultInjectingChannel beneath FramedChannel, so one fault mangles one
// whole CRC frame; the server endpoint runs the matching FramedChannel.
#include <unistd.h>

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <utility>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "circuit/builder.h"
#include "core/pipeline.h"
#include "crypto/paillier.h"
#include "data/warfarin_gen.h"
#include "gc/protocol.h"
#include "ml/linear_model.h"
#include "net/channel.h"
#include "net/error.h"
#include "net/fault.h"
#include "net/framing.h"
#include "net/socket.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "ot/iknp.h"
#include "serve/client.h"
#include "serve/engine.h"
#include "serve/model.h"
#include "serve/server.h"
#include "sharing/gmw.h"
#include "smc/secure_linear.h"
#include "util/bitvec.h"
#include "util/check.h"
#include "util/random.h"

namespace pafs {
namespace {

// ThreadSanitizer slows the round-heavy backends an order of magnitude
// (GMW under a delay fault pays per-message slowdown times hundreds of
// rounds), so the hang watchdog needs far more headroom there. The recv
// deadline stays tight: it is what a dropped message surfaces as, and
// every drop cell waits it out in full.
#if defined(__SANITIZE_THREAD__)
#define PAFS_CHAOS_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define PAFS_CHAOS_TSAN 1
#endif
#endif
#ifndef PAFS_CHAOS_TSAN
#define PAFS_CHAOS_TSAN 0
#endif

// Any sanitizer (PAFS_SLOW_SANITIZER comes from CMake when PAFS_SANITIZE
// is set) slows the serving storm enough that retry deadlines sized for a
// plain build expire on legitimate load; scale those budgets generically.
#if PAFS_CHAOS_TSAN || defined(PAFS_SLOW_SANITIZER)
#define PAFS_CHAOS_SLOW 1
#else
#define PAFS_CHAOS_SLOW 0
#endif

// Generous enough that legitimate compute (base OTs under ASan) never
// trips it; a fault that drops a message surfaces as this deadline.
constexpr double kRecvTimeout = PAFS_CHAOS_TSAN ? 4.0 : 2.0;
// Client sends beneath the CRC framing in a serving handshake's base OTs
// (A as a length + bytes pair, then two blocks per base OT); serving fault
// plans aimed past the handshake offset their first_op by it.
constexpr uint64_t kBaseOtClientSends = 2 + 2 * kOtExtensionWidth;
constexpr auto kWatchdogDeadline =
    std::chrono::seconds(PAFS_CHAOS_TSAN ? 240 : 30);

struct PartyOutcome {
  bool ok = false;
  bool typed_error = false;
  std::string error;
};

// One (kind, seed, first_op) cell of the chaos matrix. Two injection
// points per kind: the opening send (faults the OT/key setup) and a few
// ops in (faults the protocol proper).
struct ChaosCase {
  FaultKind kind;
  uint64_t seed;
  uint64_t first_op;
};

std::vector<ChaosCase> ChaosMatrix() {
  std::vector<ChaosCase> cases;
  for (FaultKind kind : {FaultKind::kDrop, FaultKind::kTruncate,
                         FaultKind::kCorrupt, FaultKind::kDelay,
                         FaultKind::kDisconnect}) {
    cases.push_back({kind, 1, 0});
    cases.push_back({kind, 7, 4});
  }
  return cases;
}

FaultPlan MakePlan(const ChaosCase& c) {
  FaultPlan plan;
  plan.kind = c.kind;
  plan.seed = c.seed;
  plan.first_op = c.first_op;
  plan.probability = 1.0;
  plan.max_faults = 1;
  plan.delay_seconds = 0.01;
  return plan;
}

std::string CaseLabel(const ChaosCase& c) {
  return std::string(FaultKindName(c.kind)) + " seed=" +
         std::to_string(c.seed) + " first_op=" + std::to_string(c.first_op);
}

// Runs both parties over the faulted stack under a watchdog. Returns
// false iff the watchdog tripped — i.e. the run *hung* and had to be
// killed by closing the channel pair. Any non-transport exception
// escapes and fails the test loudly.
bool RunChaos(const FaultPlan& plan,
              const std::function<void(Channel&)>& server_body,
              const std::function<void(Channel&)>& client_body,
              PartyOutcome* server_out, PartyOutcome* client_out) {
  MemChannelPair pair;
  FaultInjector injector(plan);
  FramedChannel server_ch(pair.endpoint(0));
  FaultInjectingChannel faulty(pair.endpoint(1), injector);
  FramedChannel client_ch(faulty);
  server_ch.set_recv_timeout_seconds(kRecvTimeout);
  client_ch.set_recv_timeout_seconds(kRecvTimeout);

  std::mutex m;
  std::condition_variable cv;
  bool done = false;
  bool tripped = false;
  std::thread watchdog([&] {
    std::unique_lock<std::mutex> lock(m);
    if (!cv.wait_for(lock, kWatchdogDeadline, [&] { return done; })) {
      tripped = true;
      pair.Close();  // Unwedge both parties; they fail typed, not hang.
    }
  });

  auto run = [](Channel& ch, const std::function<void(Channel&)>& body,
                PartyOutcome* out) {
    try {
      body(ch);
      out->ok = true;
    } catch (const TransportError& e) {
      out->typed_error = true;
      out->error = e.what();
      ch.Close();  // A dead party must not leave its peer blocked.
    }
  };
  std::thread server(run, std::ref(server_ch), std::cref(server_body),
                     server_out);
  run(client_ch, client_body, client_out);
  server.join();
  {
    std::lock_guard<std::mutex> lock(m);
    done = true;
  }
  cv.notify_all();
  watchdog.join();
  return !tripped;
}

// The invariant every cell must satisfy; delay (and none) must succeed.
void CheckOutcome(const ChaosCase& c, const PartyOutcome& server,
                  const PartyOutcome& client) {
  EXPECT_TRUE(server.ok || server.typed_error) << "server fate untyped";
  EXPECT_TRUE(client.ok || client.typed_error) << "client fate untyped";
  if (c.kind == FaultKind::kDelay) {
    EXPECT_TRUE(server.ok) << server.error;
    EXPECT_TRUE(client.ok) << client.error;
  }
}

Circuit BuildAdder(uint32_t width) {
  CircuitBuilder b(width, width);
  b.AddOutputWord(b.AddW(b.GarblerWord(0, width), b.EvaluatorWord(0, width)));
  return b.Build();
}

TEST(ChaosTest, GarbledCircuitSurvivesEveryFaultKind) {
  Circuit circuit = BuildAdder(8);
  BitVec gbits = BitVec::FromU64(57, 8);
  BitVec ebits = BitVec::FromU64(199, 8);
  BitVec expected = circuit.Evaluate(gbits, ebits);
  for (const ChaosCase& c : ChaosMatrix()) {
    SCOPED_TRACE(CaseLabel(c));
    PartyOutcome server, client;
    BitVec server_got(0), client_got(0);
    bool no_hang = RunChaos(
        MakePlan(c),
        [&](Channel& ch) {
          OtExtSender ot;
          Rng rng(c.seed * 11 + 1);
          ot.Setup(ch, rng);
          server_got = GcRunGarbler(ch, circuit, gbits, ot, rng);
        },
        [&](Channel& ch) {
          OtExtReceiver ot;
          Rng rng(c.seed * 13 + 2);
          ot.Setup(ch, rng);
          client_got = GcRunEvaluator(ch, circuit, ebits, ot);
        },
        &server, &client);
    ASSERT_TRUE(no_hang) << "run hung until the watchdog killed it";
    CheckOutcome(c, server, client);
    if (server.ok) {
      EXPECT_TRUE(server_got == expected);
    }
    if (client.ok) {
      EXPECT_TRUE(client_got == expected);
    }
  }
}

TEST(ChaosTest, IknpOtSurvivesEveryFaultKind) {
  constexpr size_t kBatch = 64;
  std::vector<std::array<Block, 2>> messages(kBatch);
  for (size_t j = 0; j < kBatch; ++j) {
    messages[j] = {Block(j, 0xAA), Block(j, 0xBB)};
  }
  BitVec choices(kBatch);
  for (size_t j = 0; j < kBatch; ++j) choices.Set(j, j % 3 == 0);
  for (const ChaosCase& c : ChaosMatrix()) {
    SCOPED_TRACE(CaseLabel(c));
    PartyOutcome server, client;
    std::vector<Block> got;
    bool no_hang = RunChaos(
        MakePlan(c),
        [&](Channel& ch) {
          OtExtSender ot;
          Rng rng(c.seed * 17 + 3);
          ot.Setup(ch, rng);
          ot.Send(ch, messages);
        },
        [&](Channel& ch) {
          OtExtReceiver ot;
          Rng rng(c.seed * 19 + 4);
          ot.Setup(ch, rng);
          got = ot.Recv(ch, choices);
        },
        &server, &client);
    ASSERT_TRUE(no_hang) << "run hung until the watchdog killed it";
    CheckOutcome(c, server, client);
    if (client.ok) {
      ASSERT_EQ(got.size(), kBatch);
      for (size_t j = 0; j < kBatch; ++j) {
        EXPECT_TRUE(got[j] == messages[j][choices.Get(j)]) << "index " << j;
      }
    }
  }
}

TEST(ChaosTest, GmwSurvivesEveryFaultKind) {
  Circuit circuit = BuildAdder(6);
  BitVec gbits = BitVec::FromU64(21, 6);
  BitVec ebits = BitVec::FromU64(40, 6);
  BitVec expected = circuit.Evaluate(gbits, ebits);
  for (const ChaosCase& c : ChaosMatrix()) {
    SCOPED_TRACE(CaseLabel(c));
    PartyOutcome server, client;
    BitVec server_got(0), client_got(0);
    bool no_hang = RunChaos(
        MakePlan(c),
        [&](Channel& ch) {
          GmwParty party(0, ch);
          Rng rng(c.seed * 23 + 5);
          party.Setup(rng);
          server_got = party.Evaluate(circuit, gbits, rng);
        },
        [&](Channel& ch) {
          GmwParty party(1, ch);
          Rng rng(c.seed * 29 + 6);
          party.Setup(rng);
          client_got = party.Evaluate(circuit, ebits, rng);
        },
        &server, &client);
    ASSERT_TRUE(no_hang) << "run hung until the watchdog killed it";
    CheckOutcome(c, server, client);
    if (server.ok) {
      EXPECT_TRUE(server_got == expected);
    }
    if (client.ok) {
      EXPECT_TRUE(client_got == expected);
    }
  }
}

TEST(ChaosTest, PaillierLinearSurvivesEveryFaultKind) {
  Rng data_rng(5);
  Dataset data = GenerateWarfarinCohort(400, data_rng);
  LinearModel model;
  model.Train(data, LinearTrainParams());
  Rng key_rng(6);
  PaillierKeyPair keys = GeneratePaillierKey(key_rng, 256);
  SecureLinearProtocol protocol(data.features(), data.num_classes(), {});
  const std::vector<int>& row = data.row(17);
  for (const ChaosCase& c : ChaosMatrix()) {
    SCOPED_TRACE(CaseLabel(c));
    PartyOutcome server, client;
    SmcRunStats server_stats, client_stats;
    bool no_hang = RunChaos(
        MakePlan(c),
        [&](Channel& ch) {
          OtExtSender ot;
          Rng rng(c.seed * 31 + 7);
          ot.Setup(ch, rng);
          server_stats = protocol.RunServer(ch, model, {}, ot, rng);
        },
        [&](Channel& ch) {
          OtExtReceiver ot;
          Rng rng(c.seed * 37 + 8);
          ot.Setup(ch, rng);
          client_stats = protocol.RunClient(ch, keys, row, ot, rng);
        },
        &server, &client);
    ASSERT_TRUE(no_hang) << "run hung until the watchdog killed it";
    CheckOutcome(c, server, client);
    if (server.ok && client.ok) {
      // Both finished: they must agree on a valid class (fixed-point
      // near-ties make exact plaintext agreement too strict here).
      EXPECT_EQ(server_stats.predicted_class, client_stats.predicted_class);
      EXPECT_GE(client_stats.predicted_class, 0);
      EXPECT_LT(client_stats.predicted_class, data.num_classes());
    }
  }
}

// ---------------------------------------------------------------------------
// Pipeline-level chaos: the supervisor must absorb transient faults via
// session teardown + retry and surface a typed error once the budget of
// attempts is spent.

class PipelineChaosTest : public ::testing::Test {
 protected:
  PipelineChaosTest() : rng_(11), data_(GenerateWarfarinCohort(400, rng_)) {}

  PipelineConfig BaseConfig() const {
    PipelineConfig config;
    config.classifier = ClassifierKind::kNaiveBayes;
    config.recv_timeout_seconds = kRecvTimeout;
    config.retry_backoff_seconds = 0.001;
    return config;
  }

  Rng rng_;
  Dataset data_;
};

TEST_F(PipelineChaosTest, DropMidQueryIsRetriedTransparently) {
  PipelineConfig config = BaseConfig();
  config.fault_plan.kind = FaultKind::kDrop;
  config.fault_plan.seed = 3;
  config.fault_plan.first_op = 20;  // Deep enough to hit the query proper.
  config.fault_plan.max_faults = 1;
  SecureClassificationPipeline pipeline(data_, config);
  const std::vector<int>& row = data_.row(7);
  SmcRunStats stats = pipeline.Classify(row);
  EXPECT_EQ(stats.predicted_class, pipeline.PlaintextPredict(row));
  EXPECT_EQ(pipeline.faults_injected(), 1u);
}

TEST_F(PipelineChaosTest, DisconnectMidQueryIsRetriedTransparently) {
  PipelineConfig config = BaseConfig();
  config.fault_plan.kind = FaultKind::kDisconnect;
  config.fault_plan.seed = 9;
  config.fault_plan.first_op = 10;
  config.fault_plan.max_faults = 1;
  SecureClassificationPipeline pipeline(data_, config);
  const std::vector<int>& row = data_.row(13);
  SmcRunStats stats = pipeline.Classify(row);
  EXPECT_EQ(stats.predicted_class, pipeline.PlaintextPredict(row));
  EXPECT_EQ(pipeline.faults_injected(), 1u);
}

TEST_F(PipelineChaosTest, ExhaustedRetriesSurfaceTypedError) {
  PipelineConfig config = BaseConfig();
  config.fault_plan.kind = FaultKind::kDrop;
  config.fault_plan.seed = 4;
  config.fault_plan.max_faults = 0;  // Unlimited: every attempt dies.
  config.max_attempts = 2;
  config.recv_timeout_seconds = 0.25;  // Fail fast; every send drops anyway.
  SecureClassificationPipeline pipeline(data_, config);
  EXPECT_THROW(pipeline.Classify(data_.row(1)), ClassificationError);
  EXPECT_GE(pipeline.faults_injected(), 2u);
}

// ---------------------------------------------------------------------------
// Chaos over the real wire: the same seed-deterministic fault matrix
// stacked over a loopback TCP connection (FramedChannel over
// FaultInjectingChannel over SocketChannel), plus socket-specific faults
// the in-memory pair cannot express (hard close mid-message, accept
// backlog overflow). The invariant is unchanged: typed error or correct
// result within the watchdog deadline, never a hang.

struct TcpTestConnection {
  std::unique_ptr<SocketChannel> server;
  std::unique_ptr<SocketChannel> client;
};

TcpTestConnection MakeTcpConnection() {
  SocketListener listener =
      SocketListener::Listen(SocketAddress::Tcp("127.0.0.1", 0));
  TcpTestConnection conn;
  std::thread connector(
      [&] { conn.client = SocketConnect(listener.local_address(), 5.0); });
  conn.server = listener.Accept(5.0);
  connector.join();
  PAFS_CHECK(conn.server != nullptr);
  PAFS_CHECK(conn.client != nullptr);
  return conn;
}

// RunChaos over TCP loopback instead of a MemChannelPair.
bool RunChaosOverTcp(const FaultPlan& plan,
                     const std::function<void(Channel&)>& server_body,
                     const std::function<void(Channel&)>& client_body,
                     PartyOutcome* server_out, PartyOutcome* client_out) {
  TcpTestConnection conn = MakeTcpConnection();
  FaultInjector injector(plan);
  FramedChannel server_ch(*conn.server);
  FaultInjectingChannel faulty(*conn.client, injector);
  FramedChannel client_ch(faulty);
  server_ch.set_recv_timeout_seconds(kRecvTimeout);
  client_ch.set_recv_timeout_seconds(kRecvTimeout);

  std::mutex m;
  std::condition_variable cv;
  bool done = false;
  bool tripped = false;
  std::thread watchdog([&] {
    std::unique_lock<std::mutex> lock(m);
    if (!cv.wait_for(lock, kWatchdogDeadline, [&] { return done; })) {
      tripped = true;
      conn.server->Close();
      conn.client->Close();
    }
  });

  auto run = [](Channel& ch, const std::function<void(Channel&)>& body,
                PartyOutcome* out) {
    try {
      body(ch);
      out->ok = true;
    } catch (const TransportError& e) {
      out->typed_error = true;
      out->error = e.what();
      ch.Close();
    }
  };
  std::thread server(run, std::ref(server_ch), std::cref(server_body),
                     server_out);
  run(client_ch, client_body, client_out);
  server.join();
  {
    std::lock_guard<std::mutex> lock(m);
    done = true;
  }
  cv.notify_all();
  watchdog.join();
  return !tripped;
}

TEST(SocketChaosTest, GarbledCircuitSurvivesFaultMatrixOverTcp) {
  Circuit circuit = BuildAdder(8);
  BitVec gbits = BitVec::FromU64(113, 8);
  BitVec ebits = BitVec::FromU64(42, 8);
  BitVec expected = circuit.Evaluate(gbits, ebits);
  for (const ChaosCase& c : ChaosMatrix()) {
    SCOPED_TRACE(CaseLabel(c));
    PartyOutcome server, client;
    BitVec server_got(0), client_got(0);
    bool no_hang = RunChaosOverTcp(
        MakePlan(c),
        [&](Channel& ch) {
          OtExtSender ot;
          Rng rng(c.seed * 41 + 1);
          ot.Setup(ch, rng);
          server_got = GcRunGarbler(ch, circuit, gbits, ot, rng);
        },
        [&](Channel& ch) {
          OtExtReceiver ot;
          Rng rng(c.seed * 43 + 2);
          ot.Setup(ch, rng);
          client_got = GcRunEvaluator(ch, circuit, ebits, ot);
        },
        &server, &client);
    ASSERT_TRUE(no_hang) << "run hung until the watchdog killed it";
    CheckOutcome(c, server, client);
    if (server.ok) EXPECT_TRUE(server_got == expected);
    if (client.ok) EXPECT_TRUE(client_got == expected);
  }
}

TEST(SocketChaosTest, PeerHardCloseMidMessageFailsTyped) {
  // A peer that dies mid-frame (partial header on the wire, then RST/FIN)
  // must surface as kClosed on the survivor — not a hang, not garbage.
  TcpTestConnection conn = MakeTcpConnection();
  conn.server->set_recv_timeout_seconds(kRecvTimeout);
  FramedChannel server_ch(*conn.server);
  const uint8_t partial[3] = {0x01, 0x02, 0x03};
  conn.client->Send(partial, sizeof(partial));
  conn.client->Close();
  try {
    server_ch.RecvU64();
    FAIL() << "expected a typed transport error";
  } catch (const ChannelError& e) {
    EXPECT_EQ(e.kind(), ChannelErrorKind::kClosed) << e.what();
  }
}

TEST(SocketChaosTest, PeerHardCloseMidPayloadFailsTyped) {
  // Same, but the cut lands inside a framed payload: the header promises
  // more bytes than ever arrive.
  TcpTestConnection conn = MakeTcpConnection();
  conn.server->set_recv_timeout_seconds(kRecvTimeout);
  FramedChannel server_ch(*conn.server);
  std::thread victim([&] {
    FramedChannel client_ch(*conn.client);
    try {
      // Far past the kernel buffers, so the sender is still mid-payload
      // (blocked on POLLOUT) when the close lands. The cut is guaranteed
      // to fall inside the framed message, not between messages.
      client_ch.SendBytes(std::vector<uint8_t>(64 << 20, 0xEE));
      ADD_FAILURE() << "send of unreceivable payload completed";
    } catch (const TransportError&) {
      // Closed under our own blocked send: the expected typed unwind.
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  conn.client->Close();
  victim.join();
  EXPECT_THROW(server_ch.RecvBytes(), TransportError);
}

TEST(SocketChaosTest, AcceptBacklogOverflowYieldsTypedOutcomes) {
  // A listener that never accepts, with a tiny backlog, swamped by
  // concurrent connects: every connect must end typed — connected (the
  // kernel queued it) or ChannelError (timeout/refused) — within its own
  // deadline. No untyped escape, no hang.
  SocketListener listener =
      SocketListener::Listen(SocketAddress::Tcp("127.0.0.1", 0),
                             /*backlog=*/1);
  constexpr int kConnects = 24;
  std::atomic<int> connected{0};
  std::atomic<int> typed_failures{0};
  std::vector<std::thread> dialers;
  std::vector<std::unique_ptr<SocketChannel>> held(kConnects);
  for (int i = 0; i < kConnects; ++i) {
    dialers.emplace_back([&, i] {
      try {
        held[i] = SocketConnect(listener.local_address(), 0.5);
        ++connected;
      } catch (const ChannelError&) {
        ++typed_failures;
      }
    });
  }
  for (auto& d : dialers) d.join();
  // Every dialer resolved one way or the other...
  EXPECT_EQ(connected + typed_failures, kConnects);
  // ...and the kernel queue admitted at least one despite zero accepts.
  EXPECT_GE(connected.load(), 1);
}

// ---------------------------------------------------------------------------
// Serving-layer chaos: the full resilience stack end to end. Faulty
// clients at 4x worker oversubscription, against a server that is killed
// and restarted mid-storm — RetryPolicy (reconnect + re-handshake + typed
// kBusy backoff) must absorb all of it with ZERO client-visible query
// failures and zero wrong answers.

TEST(ServingChaosTest, OverloadedFaultyClientsSurviveServerRestart) {
  Rng data_rng(77);
  Dataset data = GenerateWarfarinCohort(600, data_rng);
  PipelineConfig pc;
  pc.classifier = ClassifierKind::kNaiveBayes;
  pc.risk_budget = 0.08;
  SecureClassificationPipeline pipeline(data, pc);
  serve::ServingModel model = serve::ServingModel::FromPipeline(pipeline);

  serve::ServerConfig sc;
  // UDS so the restarted server reappears at the same address.
  sc.address = SocketAddress::Unix("/tmp/pafs_chaos_serve_" +
                                   std::to_string(::getpid()) + ".sock");
  sc.num_threads = 2;  // 8 clients below = 4x oversubscription.
  sc.recv_timeout_seconds = kRecvTimeout;
  sc.drain_timeout_seconds = 0.2;
  sc.max_pending_queries = 4;  // Small bound: the storm must hit sheds.
  sc.idle_timeout_seconds = 10.0;
  auto server = std::make_unique<serve::ClassificationServer>(model, sc);
  server->Start();

  constexpr int kClients = 8;
  constexpr int kQueriesEach = 3;
  std::atomic<int> wrong{0};
  std::vector<std::string> failures(kClients);
  std::atomic<uint64_t> total_reconnects{0};
  const FaultKind kKinds[] = {FaultKind::kDrop, FaultKind::kCorrupt,
                              FaultKind::kDisconnect, FaultKind::kNone};
  std::vector<std::thread> clients;
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      try {
        serve::ClientConfig cc;
        cc.address = sc.address;
        cc.recv_timeout_seconds = kRecvTimeout;
        cc.seed = 0xFEED + t;
        // Under sustained overload the deadline is the real budget:
        // instant kBusy sheds burn attempts far faster than faults do,
        // and ticket resumption makes each reconnect nearly free, so the
        // attempt cap must stay far above what the deadline permits.
        cc.retry.max_attempts = 512;
        cc.retry.initial_backoff_seconds = 0.02;
        cc.retry.max_backoff_seconds = 0.5;
        cc.retry.deadline_seconds = PAFS_CHAOS_SLOW ? 200 : 25;
        cc.fault_plan.kind = kKinds[t % 4];
        cc.fault_plan.seed = 100 + t;
        cc.fault_plan.first_op =
            kBaseOtClientSends + 15 + 3 * static_cast<uint64_t>(t);
        cc.fault_plan.max_faults = 2;
        serve::ClassificationClient client(cc);
        for (int q = 0; q < kQueriesEach; ++q) {
          const std::vector<int>& row = data.row((t * 97 + q * 31) % 600);
          if (client.Classify(row) != pipeline.PlaintextPredict(row)) {
            ++wrong;
          }
        }
        total_reconnects += client.reconnects();
        client.Close();
      } catch (const std::exception& e) {
        failures[t] = e.what();
      }
    });
  }

  // Kill the server mid-storm and resurrect it at the same address; the
  // gap turns every in-flight query into a reconnect-and-retry.
  std::this_thread::sleep_for(std::chrono::milliseconds(
      PAFS_CHAOS_SLOW ? 4000 : 600));
  server->Stop();
  server = std::make_unique<serve::ClassificationServer>(model, sc);
  server->Start();

  for (auto& c : clients) c.join();
  // The acceptance bar: zero client-visible failures, zero wrong answers.
  for (int t = 0; t < kClients; ++t) {
    EXPECT_TRUE(failures[t].empty()) << "client " << t << ": " << failures[t];
  }
  EXPECT_EQ(wrong.load(), 0);
  // The restart alone guarantees somebody had to reconnect.
  EXPECT_GE(total_reconnects.load(), 1u);
  server->Stop();
}

// Polls a predicate with a deadline; serving counters land shortly after
// the wire-level event they describe.
template <typename Pred>
bool WaitForStat(Pred pred) {
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::seconds(PAFS_CHAOS_SLOW ? 60 : 10);
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return true;
}

TEST(ServingChaosTest, MidQueryDisconnectsResumeViaTicketWithoutRerun) {
  // Crash-recovery under injected mid-query kills: every reconnect
  // presents the resumption ticket, no query is ever executed twice
  // (counter-exact at-most-once), and once the OT extension is warm a
  // resumed reconnect re-runs ZERO base OTs.
  PafsTelemetry::Enable();
  obs::Counter& base_setups = obs::GetCounter("ot.base.setups");
  obs::Counter& injected = obs::GetCounter("faults.injected");
  uint64_t injected_before = injected.value();

  Rng data_rng(78);
  Dataset data = GenerateWarfarinCohort(600, data_rng);
  PipelineConfig pc;
  pc.classifier = ClassifierKind::kNaiveBayes;
  pc.risk_budget = 0.08;
  SecureClassificationPipeline pipeline(data, pc);
  serve::ServingModel model = serve::ServingModel::FromPipeline(pipeline);

  serve::ServerConfig sc;
  sc.recv_timeout_seconds = kRecvTimeout;
  serve::ClassificationServer server(model, sc);
  server.Start();

  serve::ClientConfig cc;
  cc.address = server.address();
  cc.recv_timeout_seconds = kRecvTimeout;
  cc.seed = 0xDEAD;
  cc.retry.max_attempts = 16;
  cc.retry.initial_backoff_seconds = 0.01;
  cc.retry.deadline_seconds = PAFS_CHAOS_SLOW ? 120 : 20;
  // Both kills land past the handshake's sends, so every recovery happens
  // with a ticket in hand; where exactly inside a query they land is the
  // chaos — the assertions below hold for all landing points.
  cc.fault_plan.kind = FaultKind::kDisconnect;
  cc.fault_plan.seed = 11;
  cc.fault_plan.first_op = kBaseOtClientSends + 20;
  cc.fault_plan.max_faults = 2;
  serve::ClassificationClient client(cc);

  for (int q = 0; q < 3; ++q) {
    const std::vector<int>& row = data.row(q * 201);
    EXPECT_EQ(client.Classify(row), pipeline.PlaintextPredict(row));
  }
  EXPECT_GE(injected.value() - injected_before, 1u);
  EXPECT_GE(client.resumes(), 1u);
  ASSERT_TRUE(
      WaitForStat([&] { return server.stats().queries_served >= 3; }));
  // At-most-once: the kills forced retries, but each query id executed
  // exactly once.
  EXPECT_EQ(server.stats().queries_served, 3u);

  // Deterministic coda: with the OT extension warm, kill the connection
  // outright — the resumed reconnect must re-run zero base OTs.
  uint64_t setups_warm = base_setups.value();
  uint64_t resumes_before = client.resumes();
  client.DropConnection();
  const std::vector<int>& row = data.row(17);
  EXPECT_EQ(client.Classify(row), pipeline.PlaintextPredict(row));
  EXPECT_EQ(client.resumes(), resumes_before + 1);
  EXPECT_EQ(base_setups.value(), setups_warm);  // ZERO base-OT re-runs.

  ASSERT_TRUE(
      WaitForStat([&] { return server.stats().queries_served >= 4; }));
  serve::ServerStats stats = server.stats();
  EXPECT_EQ(stats.queries_served, 4u);
  EXPECT_EQ(stats.resumptions, client.resumes());
  EXPECT_EQ(stats.resume_misses, 0u);  // Tickets rotate; none went stale.
  client.Close();
  server.Stop();
  PafsTelemetry::Disable();
}

TEST(ServingChaosTest, CrashInReplyWindowIsAnsweredFromReplayCache) {
  // The harshest crash point: the server committed the query and sent the
  // completion ack, but the client died before reading it. On resume the
  // client is one query behind the server; its retry of the same id must
  // be answered from the replay cache — byte-for-byte, zero re-execution.
  // A second crash mid-replay must not burn the cached transcript either.
  Rng data_rng(79);
  Dataset data = GenerateWarfarinCohort(500, data_rng);
  PipelineConfig pc;
  pc.classifier = ClassifierKind::kNaiveBayes;
  pc.risk_budget = 0.08;
  SecureClassificationPipeline pipeline(data, pc);
  serve::ServingModel model = serve::ServingModel::FromPipeline(pipeline);
  serve::ClassificationServer server(model, serve::ServerConfig{});
  server.Start();
  const std::vector<int>& row = data.row(41);

  // Session 1: full handshake (its base OTs included), snapshot the
  // pre-query OT state (what a crashed client restores), run query 1
  // completely except the final completion-ack read — then die.
  auto socket = SocketConnect(server.address(), 5.0);
  socket->set_recv_timeout_seconds(kRecvTimeout * 10);
  FramedChannel framed(*socket);
  serve::SendClientHello(framed, serve::ClientHello{});
  ASSERT_EQ(framed.RecvU64(), static_cast<uint64_t>(serve::ReplyStatus::kOk));
  serve::SessionSetup setup = serve::RecvSessionSetup(framed);
  OtExtReceiver ot;
  Rng rng(0xC4A5);
  ot.Setup(framed, rng);
  std::vector<uint8_t> ticket = serve::RecvTicketFrame(framed);
  ASSERT_EQ(ticket.size(), serve::kResumeTicketBytes);
  serve::EvaluatorDriver evaluator(setup);
  std::vector<uint8_t> ot_snapshot = ot.Serialize();
  auto send_query_head = [&](FramedChannel& ch) {
    ch.SendU64(static_cast<uint64_t>(serve::RequestTag::kQuery));
    ch.SendU64(1);  // Every attempt retries "the" query.
    for (int f : setup.plan_features) {
      ch.SendU64(static_cast<uint64_t>(row[f]));
    }
    EXPECT_EQ(ch.RecvU64(), static_cast<uint64_t>(serve::ReplyStatus::kOk));
  };
  send_query_head(framed);
  int first =
      evaluator.Run(framed, {row}, serve::EvaluatorSession{ot}).classes[0];
  framed.SendU64(0);  // v4 refill tail request (unpooled raw client).
  EXPECT_EQ(first, pipeline.PlaintextPredict(row));
  ASSERT_TRUE(
      WaitForStat([&] { return server.stats().queries_served >= 1; }));
  socket->Close();  // Crash without reading the grant or completion ack.

  auto resume = [&](std::vector<uint8_t>* fresh_ticket) {
    auto s = SocketConnect(server.address(), 5.0);
    s->set_recv_timeout_seconds(kRecvTimeout * 10);
    auto ch = std::make_unique<FramedChannel>(*s);
    serve::ClientHello hello;
    hello.ticket = *fresh_ticket;
    serve::SendClientHello(*ch, hello);
    EXPECT_EQ(ch->RecvU64(),
              static_cast<uint64_t>(serve::ReplyStatus::kResumed));
    *fresh_ticket = serve::RecvTicketFrame(*ch);
    return std::make_pair(std::move(s), std::move(ch));
  };

  // Crash 2: resume, replay the retry up to the admission ack, die again
  // mid-replay. The transcript must survive for the next attempt.
  {
    auto [s2, ch2] = resume(&ticket);
    send_query_head(*ch2);
    s2->Close();
  }

  // Final attempt: resume and drive the retry to completion from the
  // restored snapshot; the whole conversation is replayed.
  OtExtReceiver ot_retry = OtExtReceiver::Deserialize(ot_snapshot);
  auto [s3, ch3] = resume(&ticket);
  send_query_head(*ch3);
  int retry =
      evaluator.Run(*ch3, {row}, serve::EvaluatorSession{ot_retry}).classes[0];
  ch3->SendU64(0);  // Replayed v4 refill tail: same request, same grant.
  EXPECT_EQ(ch3->RecvU64(), 0u);
  EXPECT_EQ(ch3->RecvU64(), static_cast<uint64_t>(serve::ReplyStatus::kOk));
  EXPECT_EQ(retry, first);

  ASSERT_TRUE(WaitForStat([&] { return server.stats().replay_hits >= 1; }));
  serve::ServerStats stats = server.stats();
  EXPECT_EQ(stats.queries_served, 1u);  // Executed exactly once, ever.
  EXPECT_GE(stats.replay_hits, 1u);
  EXPECT_EQ(stats.resumptions, 2u);
  EXPECT_EQ(stats.resume_misses, 0u);
  server.Stop();
}

}  // namespace
}  // namespace pafs
