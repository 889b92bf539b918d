// End-to-end tests for the serving layer: a real ClassificationServer on
// loopback TCP / UDS, driven by ClassificationClient sessions. The
// contract: secure answers over the wire match plaintext, concurrent
// sessions never interfere, the registry bound rejects typed, misbehaving
// peers die typed without taking a worker hostage, and Stop() drains.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "circuit/builder.h"
#include "core/pipeline.h"
#include "data/warfarin_gen.h"
#include "gc/garble.h"
#include "gc/protocol.h"
#include "net/error.h"
#include "net/fault.h"
#include "net/framing.h"
#include "net/socket.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "ot/iknp.h"
#include "ot/ot_pool.h"
#include "serve/client.h"
#include "serve/engine.h"
#include "serve/fault_offsets.h"
#include "serve/model.h"
#include "serve/precompute.h"
#include "serve/server.h"
#include "smc/secure_nb.h"
#include "util/random.h"

namespace pafs {
namespace {

// Under ThreadSanitizer on a small machine everything multiplexes on few
// cores an order of magnitude slower, so queueing behind the worker pool
// can outlast deadlines tuned for real wedges. Stretch every bound by a
// constant factor there; none of these are lower bounds, so the scaled
// values cost nothing on a passing run.
#if defined(__SANITIZE_THREAD__)
#define PAFS_SERVE_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define PAFS_SERVE_TSAN 1
#endif
#endif
#ifndef PAFS_SERVE_TSAN
#define PAFS_SERVE_TSAN 0
#endif
constexpr double kTimeScale = PAFS_SERVE_TSAN ? 10.0 : 1.0;
// The watchdog budget is the one knob where a *short* value misfires: a
// legitimate query slowed by any sanitizer (ASan/UBSan, not just TSan)
// must still finish inside it, or the watchdog cancels honest work. TSan
// on a small machine stretches a single query past 10s, hence the extra
// headroom there.
#if PAFS_SERVE_TSAN
constexpr double kBudgetScale = 30.0;
#elif defined(PAFS_SLOW_SANITIZER)
constexpr double kBudgetScale = 10.0;
#else
constexpr double kBudgetScale = 1.0;
#endif

using serve::ClassificationClient;
using serve::ClassificationServer;
using serve::ClientConfig;
using serve::ServerConfig;
using serve::ServerStats;
using serve::ServingModel;

std::string UdsPath(const char* tag) {
  return "/tmp/pafs_serve_test_" + std::string(tag) + "_" +
         std::to_string(::getpid()) + ".sock";
}

// Scripted raw-wire v9 handshake: fresh hello (empty ticket), expect kOk,
// then the setup (with the server's limits), the base OTs that open `ot` (a
// throwaway receiver when null) and the server's ticket frame.
serve::SessionSetup RawHandshake(FramedChannel& framed,
                                 OtExtReceiver* ot = nullptr,
                                 std::vector<uint8_t>* ticket = nullptr) {
  serve::SendClientHello(framed, serve::ClientHello{});
  EXPECT_EQ(framed.RecvU64(), static_cast<uint64_t>(serve::ReplyStatus::kOk));
  serve::SessionSetup setup = serve::RecvSessionSetup(framed);
  OtExtReceiver throwaway;
  Rng rng(0x0BA5E);
  (ot != nullptr ? *ot : throwaway).Setup(framed, rng);
  std::vector<uint8_t> issued = serve::RecvTicketFrame(framed);
  if (ticket != nullptr) *ticket = issued;
  return setup;
}

// The head of a raw one-record request: the kBatch tag, the query id, a
// record count of 1, then the row's disclosure values in plan order.
void SendQueryHead(Channel& ch, uint64_t id, const serve::SessionSetup& setup,
                   const std::vector<int>& row) {
  ch.SendU64(static_cast<uint64_t>(serve::RequestTag::kBatch));
  ch.SendU64(id);
  ch.SendU64(1);
  for (int f : setup.plan_features) {
    ch.SendU64(static_cast<uint64_t>(row[f]));
  }
}

// The client half of a raw request on a serving session: the evaluator
// driver for the announced setup, on a caller-held OT stream (and pad pool,
// when given) so tests can snapshot and rewind it. It decodes locally and
// sends nothing after the label OT; the caller runs the lockstep refill
// (RefillReceiverPads) before reading the completion ack. Returns each
// row's class.
std::vector<int> RunRawClient(Channel& ch, const serve::SessionSetup& setup,
                              const std::vector<std::vector<int>>& rows,
                              OtExtReceiver& ot,
                              OtReceiverPadPool* pads = nullptr) {
  return serve::EvaluatorDriver(setup)
      .Run(ch, rows, serve::EvaluatorSession{ot, pads})
      .classes;
}

// A raw client's receiver pad pool, mirroring the server's as the
// production client does: sized to the announced depth, absent at depth 0.
std::unique_ptr<OtReceiverPadPool> RawPadPool(
    const serve::SessionSetup& setup) {
  if (setup.ot_pool_depth == 0) return nullptr;
  return std::make_unique<OtReceiverPadPool>(
      static_cast<size_t>(setup.ot_pool_depth));
}

// Garbler-side channel decorator that counts the bytes received since the
// party's last send: zero when a run ends on a send.
class RecvAfterSendChannel final : public Channel {
 public:
  explicit RecvAfterSendChannel(Channel& inner) : inner_(inner) {}

  void Send(const uint8_t* data, size_t n) override {
    received_since_send = 0;
    inner_.Send(data, n);
  }
  void Recv(uint8_t* data, size_t n) override {
    inner_.Recv(data, n);
    received_since_send += n;
  }
  const ChannelStats& stats() const override { return inner_.stats(); }

  uint64_t received_since_send = 0;

 private:
  Channel& inner_;
};

// Polls a server-stats predicate; the serving path is asynchronous, so
// failure counters land shortly after the wire-level symptom.
template <typename Pred>
bool WaitFor(Pred pred, double timeout_seconds = 5.0 * kTimeScale) {
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::duration<double>(timeout_seconds));
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return true;
}

class ServeTest : public ::testing::Test {
 protected:
  ServeTest() : rng_(21), data_(GenerateWarfarinCohort(800, rng_)) {}

  std::unique_ptr<SecureClassificationPipeline> MakePipeline(
      ClassifierKind kind) {
    PipelineConfig config;
    config.classifier = kind;
    config.risk_budget = 0.08;
    return std::make_unique<SecureClassificationPipeline>(data_, config);
  }

  static ClientConfig ClientFor(const ClassificationServer& server) {
    ClientConfig c;
    c.address = server.address();
    c.recv_timeout_seconds = 30 * kTimeScale;
    return c;
  }

  Rng rng_;
  Dataset data_;
};

TEST_F(ServeTest, TcpEndToEndMatchesPlaintext) {
  auto pipeline = MakePipeline(ClassifierKind::kNaiveBayes);
  ClassificationServer server(ServingModel::FromPipeline(*pipeline),
                              ServerConfig{});
  server.Start();

  ClassificationClient client(ClientFor(server));
  EXPECT_EQ(client.setup().features.size(), data_.features().size());
  for (size_t i = 0; i < 4; ++i) {
    const std::vector<int>& row = data_.row(i * 117);
    SmcRunStats stats = client.ClassifyWithStats(row);
    EXPECT_EQ(stats.predicted_class, pipeline->PlaintextPredict(row));
    EXPECT_GT(stats.bytes, 0u);
    EXPECT_GT(stats.rounds, 0u);
  }
  client.Close();

  ASSERT_TRUE(WaitFor([&] { return server.stats().sessions_closed >= 1; }));
  ServerStats stats = server.stats();
  EXPECT_EQ(stats.sessions_accepted, 1u);
  EXPECT_EQ(stats.queries_served, 4u);
  EXPECT_EQ(stats.sessions_failed, 0u);
  EXPECT_EQ(stats.sessions_active, 0);
  server.Stop();
  EXPECT_FALSE(server.running());
}

TEST_F(ServeTest, UnixDomainEndToEnd) {
  auto pipeline = MakePipeline(ClassifierKind::kNaiveBayes);
  ServerConfig config;
  config.address = SocketAddress::Unix(UdsPath("uds"));
  ClassificationServer server(ServingModel::FromPipeline(*pipeline), config);
  server.Start();
  EXPECT_EQ(server.address().family, SocketAddress::Family::kUnix);

  ClassificationClient client(ClientFor(server));
  for (size_t i = 0; i < 2; ++i) {
    const std::vector<int>& row = data_.row(i * 311);
    EXPECT_EQ(client.Classify(row), pipeline->PlaintextPredict(row));
  }
}

TEST_F(ServeTest, EveryClassifierKindServes) {
  // One query per remaining kind: covers the tree/forest per-query
  // specialization and the linear arm of the shared item loop.
  for (ClassifierKind kind :
       {ClassifierKind::kDecisionTree, ClassifierKind::kLinear,
        ClassifierKind::kForest}) {
    SCOPED_TRACE(ClassifierName(kind));
    auto pipeline = MakePipeline(kind);
    ClassificationServer server(ServingModel::FromPipeline(*pipeline),
                                ServerConfig{});
    server.Start();
    ClassificationClient client(ClientFor(server));
    const std::vector<int>& row = data_.row(99);
    EXPECT_EQ(client.Classify(row), pipeline->PlaintextPredict(row));
    client.Close();
    server.Stop();
    EXPECT_EQ(server.stats().sessions_failed, 0u);
  }
}

TEST_F(ServeTest, ConcurrentSessionsAllAnswerCorrectly) {
  auto pipeline = MakePipeline(ClassifierKind::kNaiveBayes);
  ServerConfig config;
  config.num_threads = 4;
  config.recv_timeout_seconds = 30 * kTimeScale;
  ClassificationServer server(ServingModel::FromPipeline(*pipeline), config);
  server.Start();

  constexpr int kClients = 8;
  constexpr int kQueriesEach = 3;
  std::vector<int> failures(kClients, 0);
  std::vector<std::string> errors(kClients);
  std::vector<std::thread> clients;
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      // An escaped exception would terminate the whole process; record it
      // as this client's failure instead so the test reports it.
      try {
        ClientConfig cc = ClientFor(server);
        cc.seed = 0xC11E47 + t;
        ClassificationClient client(cc);
        for (int q = 0; q < kQueriesEach; ++q) {
          const std::vector<int>& row = data_.row((t * 131 + q * 17) % 800);
          if (client.Classify(row) != pipeline->PlaintextPredict(row)) {
            ++failures[t];
          }
        }
        client.Close();
      } catch (const std::exception& e) {
        ++failures[t];
        errors[t] = e.what();
      }
    });
  }
  for (auto& c : clients) c.join();

  for (int t = 0; t < kClients; ++t) {
    EXPECT_EQ(failures[t], 0) << "client " << t << ": " << errors[t];
  }
  ASSERT_TRUE(WaitFor(
      [&] { return server.stats().sessions_closed >= kClients; }));
  ServerStats stats = server.stats();
  EXPECT_EQ(stats.sessions_accepted, static_cast<uint64_t>(kClients));
  EXPECT_EQ(stats.queries_served,
            static_cast<uint64_t>(kClients * kQueriesEach));
  EXPECT_EQ(stats.sessions_failed, 0u);
}

TEST_F(ServeTest, RegistryBoundRejectsExcessSessionsTyped) {
  auto pipeline = MakePipeline(ClassifierKind::kNaiveBayes);
  ServerConfig config;
  config.max_sessions = 1;
  ClassificationServer server(ServingModel::FromPipeline(*pipeline), config);
  server.Start();

  ClassificationClient first(ClientFor(server));  // Holds the one slot.
  EXPECT_THROW(ClassificationClient second(ClientFor(server)),
               TransportError);
  ASSERT_TRUE(WaitFor([&] { return server.stats().sessions_rejected >= 1; }));

  // The held session is unaffected by the rejection, and freeing the slot
  // readmits new sessions.
  const std::vector<int>& row = data_.row(42);
  EXPECT_EQ(first.Classify(row), pipeline->PlaintextPredict(row));
  first.Close();
  ASSERT_TRUE(WaitFor([&] { return server.stats().sessions_active == 0; }));
  ClassificationClient third(ClientFor(server));
  EXPECT_EQ(third.Classify(row), pipeline->PlaintextPredict(row));
}

TEST_F(ServeTest, BadHelloFailsSessionTypedAndServerSurvives) {
  auto pipeline = MakePipeline(ClassifierKind::kNaiveBayes);
  ClassificationServer server(ServingModel::FromPipeline(*pipeline),
                              ServerConfig{});
  server.Start();

  {
    auto socket = SocketConnect(server.address(), 2.0 * kTimeScale);
    socket->set_recv_timeout_seconds(2.0 * kTimeScale);
    FramedChannel framed(*socket);
    framed.SendU64(0xBADC0FFEEull);  // Wrong magic.
    framed.SendU64(1);
    EXPECT_EQ(framed.RecvU64(), 0u);  // Typed refusal.
    EXPECT_THROW(framed.RecvU64(), ChannelError);
  }
  ASSERT_TRUE(WaitFor([&] { return server.stats().sessions_failed >= 1; }));

  // Well-formed sessions still serve.
  ClassificationClient client(ClientFor(server));
  const std::vector<int>& row = data_.row(7);
  EXPECT_EQ(client.Classify(row), pipeline->PlaintextPredict(row));
}

TEST_F(ServeTest, SilentPeerMidQueryDiesOnDeadline) {
  auto pipeline = MakePipeline(ClassifierKind::kNaiveBayes);
  ServerConfig config;
  config.recv_timeout_seconds = 0.3;  // Fail the wedged session fast.
  ClassificationServer server(ServingModel::FromPipeline(*pipeline), config);
  server.Start();

  // The peer goes silent inside the handshake's base OTs (right after the
  // setup frames), or inside a query (right after the request tag).
  for (bool in_base_ots : {true, false}) {
    SCOPED_TRACE(in_base_ots ? "silent in the base OTs" : "silent in a query");
    const uint64_t failed_before = server.stats().sessions_failed;
    auto socket = SocketConnect(server.address(), 2.0 * kTimeScale);
    socket->set_recv_timeout_seconds(5.0 * kTimeScale);
    FramedChannel framed(*socket);
    if (in_base_ots) {
      serve::SendClientHello(framed, serve::ClientHello{});
      ASSERT_EQ(framed.RecvU64(),
                static_cast<uint64_t>(serve::ReplyStatus::kOk));
      serve::RecvSessionSetup(framed);
    } else {
      RawHandshake(framed);
      framed.SendU64(static_cast<uint64_t>(serve::RequestTag::kBatch));
      framed.Flush();  // No Recv follows to carry the tag out.
    }
    // ... and then say nothing: the worker must be freed by the deadline.
    ASSERT_TRUE(WaitFor(
        [&] { return server.stats().sessions_failed >= failed_before + 1; },
        10.0 * kTimeScale));
    ASSERT_TRUE(WaitFor([&] { return server.stats().sessions_active == 0; }));

    // The freed worker still serves real sessions.
    ClassificationClient client(ClientFor(server));
    const std::vector<int>& row = data_.row(3);
    EXPECT_EQ(client.Classify(row), pipeline->PlaintextPredict(row));
    client.Close();
  }
}

TEST_F(ServeTest, OutOfRangeDisclosureRejectedTyped) {
  auto pipeline = MakePipeline(ClassifierKind::kNaiveBayes);
  ClassificationServer server(ServingModel::FromPipeline(*pipeline),
                              ServerConfig{});
  server.Start();

  auto socket = SocketConnect(server.address(), 2.0 * kTimeScale);
  socket->set_recv_timeout_seconds(2.0 * kTimeScale);
  FramedChannel framed(*socket);
  serve::SessionSetup setup = RawHandshake(framed);
  if (setup.plan_features.empty()) {
    GTEST_SKIP() << "risk budget selected an empty plan";
  }
  try {
    framed.SendU64(static_cast<uint64_t>(serve::RequestTag::kBatch));
    framed.SendU64(1);  // Query id.
    framed.SendU64(1);  // Record count.
    for (size_t i = 0; i < setup.plan_features.size(); ++i) {
      framed.SendU64(1u << 20);  // Beyond any feature's cardinality.
    }
    framed.Flush();
  } catch (const TransportError&) {
    // The server may hang up after the first bad value while we are still
    // sending; a typed send failure is the expected client-side symptom.
  }
  ASSERT_TRUE(WaitFor([&] { return server.stats().sessions_failed >= 1; }));
}

TEST_F(ServeTest, StopDrainsIdleSessionsAndRefusesNewConnects) {
  auto pipeline = MakePipeline(ClassifierKind::kNaiveBayes);
  ClassificationServer server(ServingModel::FromPipeline(*pipeline),
                              ServerConfig{});
  server.Start();

  ClassificationClient client(ClientFor(server));
  const std::vector<int>& row = data_.row(12);
  EXPECT_EQ(client.Classify(row), pipeline->PlaintextPredict(row));

  auto before = std::chrono::steady_clock::now();
  server.Stop();  // Session is idle: the drain must not eat the grace.
  double stop_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - before)
          .count();
  EXPECT_LT(stop_seconds, 4.0 * kTimeScale);
  EXPECT_FALSE(server.running());
  EXPECT_EQ(server.stats().sessions_active, 0);

  // The drained client fails typed on its next query...
  EXPECT_THROW(client.Classify(row), TransportError);
  // ...and new connects are refused outright.
  EXPECT_THROW(ClassificationClient late(ClientFor(server)), TransportError);
}

TEST_F(ServeTest, StopMidQueryForceClosesAfterGrace) {
  auto pipeline = MakePipeline(ClassifierKind::kNaiveBayes);
  ServerConfig config;
  // The wedge must outlive the drain grace (and, under TSan, the whole
  // scaled stop bound below) so it is Stop() that kills it.
  config.recv_timeout_seconds = 30 * kTimeScale;
  config.drain_timeout_seconds = 0.2;
  ClassificationServer server(ServingModel::FromPipeline(*pipeline), config);
  server.Start();

  // Wedge a session mid-query so Stop() finds it busy.
  auto socket = SocketConnect(server.address(), 2.0 * kTimeScale);
  socket->set_recv_timeout_seconds(10.0 * kTimeScale);
  FramedChannel framed(*socket);
  RawHandshake(framed);
  framed.SendU64(static_cast<uint64_t>(serve::RequestTag::kBatch));
  framed.Flush();
  ASSERT_TRUE(WaitFor([&] { return server.stats().sessions_active == 1; }));

  auto before = std::chrono::steady_clock::now();
  server.Stop();
  double stop_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - before)
          .count();
  // Grace (0.2s) + force-close unwind, well short of the recv deadline.
  EXPECT_LT(stop_seconds, 5.0 * kTimeScale);
  EXPECT_EQ(server.stats().sessions_active, 0);
}

TEST_F(ServeTest, IdleSessionsAreReapedAndSlotsFreed) {
  // Slow loris: peers that connect and say nothing must not hold registry
  // slots forever — the reaper closes them after idle_timeout_seconds.
  auto pipeline = MakePipeline(ClassifierKind::kNaiveBayes);
  ServerConfig config;
  config.max_sessions = 3;
  config.idle_timeout_seconds = 0.4 * kTimeScale;
  ClassificationServer server(ServingModel::FromPipeline(*pipeline), config);
  server.Start();

  std::vector<std::unique_ptr<SocketChannel>> loris;
  for (int i = 0; i < 3; ++i) {
    loris.push_back(SocketConnect(server.address(), 2.0 * kTimeScale));
  }
  ASSERT_TRUE(WaitFor([&] { return server.stats().sessions_active == 3; }));
  // The registry is now exhausted by silent peers; the reaper must evict
  // all of them within ~1.25x the idle timeout.
  ASSERT_TRUE(WaitFor([&] { return server.stats().sessions_reaped >= 3; }));
  ASSERT_TRUE(WaitFor([&] { return server.stats().sessions_active == 0; }));

  // The freed slots admit real sessions again.
  ClientConfig cc = ClientFor(server);
  cc.retry.max_attempts = 1;  // A reject here should fail the test, loudly.
  ClassificationClient client(cc);
  const std::vector<int>& row = data_.row(23);
  EXPECT_EQ(client.Classify(row), pipeline->PlaintextPredict(row));
}

TEST_F(ServeTest, PingKeepsAnIdleSessionWarm) {
  auto pipeline = MakePipeline(ClassifierKind::kNaiveBayes);
  ServerConfig config;
  config.idle_timeout_seconds = 0.4 * kTimeScale;
  ClassificationServer server(ServingModel::FromPipeline(*pipeline), config);
  server.Start();

  ClassificationClient client(ClientFor(server));
  // Ping through several full idle windows: the keepalive must refresh the
  // server's idle clock, so the session is never reaped.
  auto until = std::chrono::steady_clock::now() +
               std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::duration<double>(1.2 * kTimeScale));
  while (std::chrono::steady_clock::now() < until) {
    client.Ping();
    std::this_thread::sleep_for(std::chrono::duration<double>(
        0.1 * kTimeScale));
  }
  EXPECT_EQ(server.stats().sessions_reaped, 0u);
  EXPECT_GE(server.stats().pings_served, 3u);

  // Still the original session: the query needs no reconnect.
  const std::vector<int>& row = data_.row(31);
  EXPECT_EQ(client.Classify(row), pipeline->PlaintextPredict(row));
  EXPECT_EQ(client.reconnects(), 0u);
}

TEST_F(ServeTest, RegistryFullSurfacesServerBusyError) {
  // The typed kBusy reject is distinguishable from "server dead": with
  // retry disabled the client must surface ServerBusyError specifically.
  auto pipeline = MakePipeline(ClassifierKind::kNaiveBayes);
  ServerConfig config;
  config.max_sessions = 1;
  ClassificationServer server(ServingModel::FromPipeline(*pipeline), config);
  server.Start();

  ClassificationClient first(ClientFor(server));  // Holds the one slot.
  ClientConfig cc = ClientFor(server);
  cc.retry.max_attempts = 1;
  EXPECT_THROW(ClassificationClient second(cc), serve::ServerBusyError);
}

TEST_F(ServeTest, SaturatedWorkerQueueShedsQueriesTyped) {
  auto pipeline = MakePipeline(ClassifierKind::kNaiveBayes);
  ServerConfig config;
  config.num_threads = 2;
  config.max_pending_queries = 1;  // Capacity: 2 running + 1 queued.
  config.recv_timeout_seconds = 5.0 * kTimeScale;  // Wedge lifetime.
  config.drain_timeout_seconds = 0.2;
  ClassificationServer server(ServingModel::FromPipeline(*pipeline), config);
  server.Start();

  // Five raw sessions, all handshaken up front while workers are free.
  std::vector<std::unique_ptr<SocketChannel>> sockets;
  std::vector<std::unique_ptr<FramedChannel>> frames;
  for (int i = 0; i < 5; ++i) {
    sockets.push_back(SocketConnect(server.address(), 2.0 * kTimeScale));
    sockets.back()->set_recv_timeout_seconds(2.0 * kTimeScale);
    frames.push_back(std::make_unique<FramedChannel>(*sockets.back()));
    RawHandshake(*frames.back());
  }
  // Each now sends a query and goes silent. Arrival order fills the two
  // workers, queues one, and the rest must be shed with a typed kBusy —
  // not queued unboundedly, not silently dropped.
  for (int i = 0; i < 5; ++i) {
    frames[i]->SendU64(static_cast<uint64_t>(serve::RequestTag::kBatch));
    frames[i]->Flush();
    std::this_thread::sleep_for(std::chrono::duration<double>(
        0.05 * kTimeScale));
  }
  ASSERT_TRUE(WaitFor([&] { return server.stats().queries_shed >= 2; }));
  // A shed session's one reply frame is the kBusy status.
  int busy_replies = 0;
  for (int i = 3; i < 5; ++i) {
    try {
      if (frames[i]->RecvU64() ==
          static_cast<uint64_t>(serve::ReplyStatus::kBusy)) {
        ++busy_replies;
      }
    } catch (const TransportError&) {
      // A wedged (not shed) session times out instead; tolerated.
    }
  }
  EXPECT_GE(busy_replies, 1);
}

TEST_F(ServeTest, ClientReconnectsAcrossServerRestart) {
  auto pipeline = MakePipeline(ClassifierKind::kNaiveBayes);
  ServingModel model = ServingModel::FromPipeline(*pipeline);
  ServerConfig config;
  // UDS: a restarted server reappears at the same address (a TCP restart
  // on port 0 would move).
  config.address = SocketAddress::Unix(UdsPath("restart"));
  auto server = std::make_unique<ClassificationServer>(model, config);
  server->Start();

  ClientConfig cc;
  cc.address = config.address;
  cc.recv_timeout_seconds = 30 * kTimeScale;
  cc.retry.deadline_seconds = 30 * kTimeScale;
  ClassificationClient client(cc);
  const std::vector<int>& row = data_.row(58);
  EXPECT_EQ(client.Classify(row), pipeline->PlaintextPredict(row));

  // Kill and resurrect the server; the client's next query must absorb the
  // dead session transparently via reconnect + re-handshake + retry.
  server->Stop();
  server = std::make_unique<ClassificationServer>(model, config);
  server->Start();
  EXPECT_EQ(client.Classify(row), pipeline->PlaintextPredict(row));
  EXPECT_GE(client.reconnects(), 1u);
  EXPECT_GE(client.retries(), 1u);
}

TEST_F(ServeTest, FaultOffsetsPinTheHandshakeBoundary) {
  // kHelloClientSends + kBaseOtClientSends counts every client send of a
  // fresh handshake: a disconnect on the last of them lands inside the
  // constructor's handshake (its retry is no reconnect, and no ticket was
  // issued to resume with), one on the next send (the first request's
  // tag) lands past the ticket (the query reconnects, resuming when the
  // server issues tickets).
  auto pipeline = MakePipeline(ClassifierKind::kNaiveBayes);
  ClassificationServer server(ServingModel::FromPipeline(*pipeline),
                              ServerConfig{});
  server.Start();
  const uint64_t handshake_sends = kHelloClientSends + kBaseOtClientSends;
  uint64_t failed = 0;
  for (uint64_t first_op : {handshake_sends - 1, handshake_sends}) {
    SCOPED_TRACE(first_op);
    ClientConfig cc = ClientFor(server);
    cc.fault_plan.kind = FaultKind::kDisconnect;
    cc.fault_plan.first_op = first_op;
    cc.fault_plan.max_faults = 1;
    ClassificationClient client(cc);
    const std::vector<int>& row = data_.row(12);
    EXPECT_EQ(client.Classify(row), pipeline->PlaintextPredict(row));
    const uint64_t past_handshake = first_op == handshake_sends ? 1u : 0u;
    EXPECT_EQ(client.reconnects(), past_handshake);
    // With resumption off (PAFS_NO_RESUME=1) no ticket is issued, so the
    // reconnect is a full handshake.
    EXPECT_EQ(client.resumes(),
              serve::ResumeDisabledByEnv() ? 0u : past_handshake);
    client.Close();
    ++failed;  // The faulted session, either way.
    ASSERT_TRUE(
        WaitFor([&] { return server.stats().sessions_failed >= failed; }));
  }
}

TEST_F(ServeTest, ClientRetryAbsorbsInjectedDisconnect) {
  auto pipeline = MakePipeline(ClassifierKind::kNaiveBayes);
  ClassificationServer server(ServingModel::FromPipeline(*pipeline),
                              ServerConfig{});
  server.Start();

  ClientConfig cc = ClientFor(server);
  cc.fault_plan.kind = FaultKind::kDisconnect;
  cc.fault_plan.seed = 5;
  // Past the handshake, inside query 1: its first flight after the request.
  cc.fault_plan.first_op =
      kHelloClientSends + kBaseOtClientSends + kRequestHeadSends;
  cc.fault_plan.max_faults = 1;
  ClassificationClient client(cc);
  const std::vector<int>& row = data_.row(44);
  EXPECT_EQ(client.Classify(row), pipeline->PlaintextPredict(row));
  EXPECT_EQ(client.reconnects(), 1u);
  ASSERT_TRUE(WaitFor([&] { return server.stats().sessions_failed >= 1; }));
}

TEST_F(ServeTest, ReconnectStormDuringStopDrainEndsTyped) {
  auto pipeline = MakePipeline(ClassifierKind::kNaiveBayes);
  ServerConfig config;
  config.num_threads = 4;
  config.drain_timeout_seconds = 0.2;
  ClassificationServer server(ServingModel::FromPipeline(*pipeline), config);
  server.Start();

  // Clients connect-and-query in a loop while the server goes down: every
  // one must end each iteration with a result or a TransportError — never
  // an untyped escape, never a hang past its own retry deadline.
  constexpr int kClients = 6;
  std::atomic<bool> go{true};
  std::vector<std::string> untyped(kClients);
  std::vector<std::thread> clients;
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      const std::vector<int>& row = data_.row((t * 53) % 800);
      while (go.load()) {
        try {
          ClientConfig cc = ClientFor(server);
          cc.seed = 0x57AB + t;
          cc.retry.max_attempts = 2;
          cc.retry.initial_backoff_seconds = 0.01;
          cc.retry.deadline_seconds = 2.0 * kTimeScale;
          ClassificationClient client(cc);
          client.Classify(row);
          client.Close();
        } catch (const TransportError&) {
          // Typed refusal/teardown: the expected storm outcome.
        } catch (const std::exception& e) {
          untyped[t] = e.what();
          return;
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(
      0.5 * kTimeScale));
  server.Stop();  // Drain while the storm is still dialing.
  std::this_thread::sleep_for(std::chrono::duration<double>(
      0.3 * kTimeScale));
  go.store(false);
  for (auto& c : clients) c.join();
  for (int t = 0; t < kClients; ++t) {
    EXPECT_TRUE(untyped[t].empty()) << "client " << t << ": " << untyped[t];
  }
  EXPECT_FALSE(server.running());
  EXPECT_EQ(server.stats().sessions_active, 0);
}

TEST_F(ServeTest, RandomHelloBytesNeverKillTheServer) {
  // Handshake fuzz over the live socket: raw junk instead of a framed
  // hello. Every session must die typed server-side while the listener
  // keeps serving well-formed peers.
  auto pipeline = MakePipeline(ClassifierKind::kNaiveBayes);
  ServerConfig config;
  config.recv_timeout_seconds = 0.5 * kTimeScale;  // Junk-wedges die fast.
  ClassificationServer server(ServingModel::FromPipeline(*pipeline), config);
  server.Start();

  Rng fuzz(0xF422);
  for (int trial = 0; trial < 25; ++trial) {
    try {
      auto socket = SocketConnect(server.address(), 2.0 * kTimeScale);
      socket->set_recv_timeout_seconds(0.2 * kTimeScale);
      size_t n = 1 + fuzz.NextU64Below(64);
      std::vector<uint8_t> junk(n);
      fuzz.FillBytes(junk.data(), n);
      socket->Send(junk.data(), n);
      if (trial % 2 == 0) {
        uint8_t byte;
        socket->Recv(&byte, 1);  // Maybe a reject frame; maybe a timeout.
      }
      socket->Close();
    } catch (const TransportError&) {
      // Every client-side fate must be typed too.
    }
  }
  ASSERT_TRUE(WaitFor([&] { return server.stats().sessions_failed >= 10; },
                      20.0 * kTimeScale));
  ASSERT_TRUE(WaitFor([&] { return server.stats().sessions_active == 0; },
                      20.0 * kTimeScale));

  ClassificationClient client(ClientFor(server));
  const std::vector<int>& row = data_.row(17);
  EXPECT_EQ(client.Classify(row), pipeline->PlaintextPredict(row));
}

TEST_F(ServeTest, ResumedReconnectSkipsBaseOts) {
  // The crash-recovery tentpole, counter-verified: the (expensive) base
  // OTs run once per session, in the handshake that opens it, and a
  // reconnect that presents the resumption ticket restores the session's
  // OT extension state and never re-runs them.
  if (serve::ResumeDisabledByEnv()) GTEST_SKIP() << "PAFS_NO_RESUME set";
  PafsTelemetry::Enable();
  auto pipeline = MakePipeline(ClassifierKind::kNaiveBayes);
  ClassificationServer server(ServingModel::FromPipeline(*pipeline),
                              ServerConfig{});
  server.Start();
  obs::Counter& setups = obs::GetCounter("ot.base.setups");
  const std::vector<int>& row = data_.row(9);

  const uint64_t setups_before = setups.value();
  ClassificationClient client(ClientFor(server));
  const uint64_t setups_open = setups.value();
  EXPECT_EQ(setups_open, setups_before + 2);  // Both OT endpoints.
  EXPECT_EQ(client.Classify(row), pipeline->PlaintextPredict(row));
  EXPECT_EQ(setups.value(), setups_open);  // None inside the first query.
  // Wait until the server has refreshed the resume snapshot (ordered
  // before the queries_served bump) so the reconnect below must hit it.
  ASSERT_TRUE(WaitFor([&] { return server.stats().queries_served >= 1; }));

  client.DropConnection();  // Crash, as far as both ends can tell.
  EXPECT_EQ(client.Classify(row), pipeline->PlaintextPredict(row));

  EXPECT_EQ(client.reconnects(), 1u);
  EXPECT_EQ(client.resumes(), 1u);
  EXPECT_EQ(setups.value(), setups_open);  // ZERO base-OT re-runs.
  ASSERT_TRUE(WaitFor([&] { return server.stats().queries_served >= 2; }));

  // A session dropped before its first query resumes from the
  // post-handshake snapshot, whose OT streams are already set up: its
  // first query runs no base OTs either.
  ClassificationClient early(ClientFor(server));
  const uint64_t setups_early = setups.value();
  early.DropConnection();
  EXPECT_EQ(early.Classify(row), pipeline->PlaintextPredict(row));
  EXPECT_EQ(early.resumes(), 1u);
  EXPECT_EQ(setups.value(), setups_early);

  ASSERT_TRUE(WaitFor([&] { return server.stats().queries_served >= 3; }));
  ServerStats stats = server.stats();
  EXPECT_EQ(stats.resumptions, 2u);
  EXPECT_EQ(stats.resume_misses, 0u);
  PafsTelemetry::Disable();
}

TEST_F(ServeTest, ResumeSnapshotsStayInStepWithOverlappingFillers) {
  // The post-request resume snapshot copies the OT stream and the pad
  // pools while a filler that was in flight when the request arrived may
  // materialize parked OT columns. Back-to-back pooled forest queries keep
  // fillers overlapping requests, and every few queries a crash-like drop
  // resumes from the latest snapshot: a snapshot that caught the OT
  // stream and the pad pool on different sides of a materialize leaves
  // the resumed session out of step with the client, and its answers
  // wrong.
  if (serve::ResumeDisabledByEnv()) GTEST_SKIP() << "PAFS_NO_RESUME set";
  auto pipeline = MakePipeline(ClassifierKind::kForest);
  ClassificationServer server(ServingModel::FromPipeline(*pipeline),
                              ServerConfig{});
  server.Start();
  ClassificationClient client(ClientFor(server));
  constexpr int kQueries = 24;
  constexpr int kDropEvery = 4;
  for (int q = 1; q <= kQueries; ++q) {
    if (q % kDropEvery == 0) client.DropConnection();
    const std::vector<int>& row = data_.row((q * 37) % data_.size());
    EXPECT_EQ(client.Classify(row), pipeline->PlaintextPredict(row))
        << "query " << q;
  }
  EXPECT_EQ(client.resumes(), static_cast<uint64_t>(kQueries / kDropEvery));
  EXPECT_EQ(client.retries(), 0u);
  client.Close();
  server.Stop();
  EXPECT_EQ(server.stats().resume_misses, 0u);
}

TEST_F(ServeTest, RetriedQueryIsReplayedNotReExecuted) {
  // At-most-once: a client that loses the reply retries the same query id
  // from its last snapshot; the server answers from the recorded
  // transcript without executing the query a second time. The raw client
  // is the evaluator driver on an OT stream the test snapshots and rewinds.
  if (serve::ResumeDisabledByEnv()) GTEST_SKIP() << "PAFS_NO_RESUME set";
  for (ClassifierKind kind :
       {ClassifierKind::kNaiveBayes, ClassifierKind::kDecisionTree,
        ClassifierKind::kForest}) {
    SCOPED_TRACE(ClassifierName(kind));
    auto pipeline = MakePipeline(kind);
    ClassificationServer server(ServingModel::FromPipeline(*pipeline),
                                ServerConfig{});
    server.Start();
    const std::vector<int>& row = data_.row(5);

    auto socket = SocketConnect(server.address(), 2.0 * kTimeScale);
    socket->set_recv_timeout_seconds(30 * kTimeScale);
    FramedChannel framed(*socket);
    std::vector<uint8_t> ticket;
    OtExtReceiver ot;
    serve::SessionSetup setup = RawHandshake(framed, &ot, &ticket);
    ASSERT_EQ(ticket.size(), serve::kResumeTicketBytes);
    // Snapshot the pre-query client state — exactly what a crashed client
    // would restore before retrying.
    const OtExtReceiver ot_snapshot = ot;

    auto run_query = [&](FramedChannel& ch, OtExtReceiver& o) {
      SendQueryHead(ch, 1, setup, row);  // Same id both times: "the" query.
      EXPECT_EQ(ch.RecvU64(), static_cast<uint64_t>(serve::ReplyStatus::kOk));
      int pred = RunRawClient(ch, setup, {row}, o)[0];
      // The lockstep refill from the pre-query (empty) pool and the same
      // choice stream, so the retry sends the same columns.
      Rng refill_rng(0x5EED);
      std::unique_ptr<OtReceiverPadPool> pads = RawPadPool(setup);
      RefillReceiverPads(ch, o, refill_rng, pads.get());
      // Completion ack: the client-side commit point for the query.
      EXPECT_EQ(ch.RecvU64(), static_cast<uint64_t>(serve::ReplyStatus::kOk));
      return pred;
    };

    int first = run_query(framed, ot);
    EXPECT_EQ(first, pipeline->PlaintextPredict(row));
    ASSERT_TRUE(WaitFor([&] { return server.stats().queries_served >= 1; }));

    // The reply is "lost": drop the connection, rewind to the snapshot, and
    // resume with the ticket.
    socket->Close();
    OtExtReceiver ot_retry = ot_snapshot;
    auto socket2 = SocketConnect(server.address(), 2.0 * kTimeScale);
    socket2->set_recv_timeout_seconds(30 * kTimeScale);
    FramedChannel framed2(*socket2);
    serve::ClientHello hello;
    hello.ticket = ticket;
    serve::SendClientHello(framed2, hello);
    ASSERT_EQ(framed2.RecvU64(),
              static_cast<uint64_t>(serve::ReplyStatus::kResumed));
    std::vector<uint8_t> rotated = serve::RecvTicketFrame(framed2);
    EXPECT_EQ(rotated.size(), serve::kResumeTicketBytes);
    EXPECT_NE(rotated, ticket);  // Tickets are consumed and rotated.

    int retry = run_query(framed2, ot_retry);
    EXPECT_EQ(retry, first);

    ASSERT_TRUE(WaitFor([&] { return server.stats().replay_hits >= 1; }));
    ServerStats stats = server.stats();
    EXPECT_EQ(stats.replay_hits, 1u);
    EXPECT_EQ(stats.queries_served, 1u);  // Executed exactly once.
    EXPECT_EQ(stats.resumptions, 1u);
  }
}

TEST_F(ServeTest, GarblerReceivesNothingAfterItsLabelOt) {
  // The class stays with the client: the garbler driver's last message is
  // its label OT, and it has read everything the evaluator sent by then,
  // so no output report (or any other frame) follows.
  for (ClassifierKind kind :
       {ClassifierKind::kNaiveBayes, ClassifierKind::kDecisionTree,
        ClassifierKind::kLinear, ClassifierKind::kForest}) {
    SCOPED_TRACE(ClassifierName(kind));
    auto pipeline = MakePipeline(kind);
    ServingModel model = ServingModel::FromPipeline(*pipeline);
    MemChannelPair pair;
    OtExtSender sender;
    OtExtReceiver receiver;
    Rng garbler_rng(5), evaluator_rng(6);
    std::thread setup([&] { sender.Setup(pair.endpoint(0), garbler_rng); });
    receiver.Setup(pair.endpoint(1), evaluator_rng);
    setup.join();

    const std::vector<std::vector<int>> rows = {data_.row(3), data_.row(40)};
    std::vector<std::vector<int>> keys;
    for (const std::vector<int>& row : rows) {
      std::vector<int>& key = keys.emplace_back();
      for (int f : model.setup.plan_features) key.push_back(row[f]);
    }
    const uint64_t evaluator_sent_before = pair.endpoint(1).stats().bytes_sent;
    const uint64_t garbler_received_before =
        pair.endpoint(0).stats().bytes_received;
    RecvAfterSendChannel garbler_ch(pair.endpoint(0));
    serve::GarblerDriver garbler(model, model.setup.plan_features);
    serve::SpecMap specs;
    std::thread server([&] {
      garbler.Run(garbler_ch, keys,
                  serve::GarblerSession{sender, garbler_rng, specs});
    });
    serve::EvaluatorResult result =
        serve::EvaluatorDriver(model.setup)
            .Run(pair.endpoint(1), rows, serve::EvaluatorSession{receiver});
    server.join();

    EXPECT_EQ(garbler_ch.received_since_send, 0u);
    EXPECT_EQ(pair.endpoint(0).stats().bytes_received - garbler_received_before,
              pair.endpoint(1).stats().bytes_sent - evaluator_sent_before);
    ASSERT_EQ(result.classes.size(), rows.size());
    for (size_t i = 0; i < rows.size(); ++i) {
      EXPECT_EQ(result.classes[i], pipeline->PlaintextPredict(rows[i]));
    }
  }
}

TEST(ServeModelTest, DecodeClassIndexRejectsPeerBitsTyped) {
  BitVec two(2);
  two.Set(1, true);
  EXPECT_EQ(serve::DecodeClassIndex(two, 3), 2);
  BitVec ones(2);
  ones.Set(0, true);
  ones.Set(1, true);
  EXPECT_THROW(serve::DecodeClassIndex(ones, 3), ProtocolError);
  EXPECT_THROW(serve::DecodeClassIndex(BitVec(3), 3), ProtocolError);
}

TEST_F(ServeTest, WatchdogCancelsWedgedQueryTypedAndServerKeepsServing) {
  auto pipeline = MakePipeline(ClassifierKind::kNaiveBayes);
  ServerConfig config;
  // The wedge would otherwise hold a worker for the whole recv deadline;
  // the watchdog must free it at the (much shorter) per-query budget.
  const double budget = 1.0 * kBudgetScale;
  config.recv_timeout_seconds = 30 * kTimeScale + budget;
  config.query_budget_seconds = budget;
  ClassificationServer server(ServingModel::FromPipeline(*pipeline), config);
  server.Start();

  // Wedge: enter a query (tag, id, count) and then go silent, parking the
  // worker on the disclosure recv with the watchdog armed.
  auto socket = SocketConnect(server.address(), 2.0 * kTimeScale);
  socket->set_recv_timeout_seconds(15.0 * kTimeScale + budget);
  FramedChannel framed(*socket);
  serve::SessionSetup setup = RawHandshake(framed);
  if (setup.plan_features.empty()) {
    GTEST_SKIP() << "risk budget selected an empty plan";
  }
  framed.SendU64(static_cast<uint64_t>(serve::RequestTag::kBatch));
  framed.SendU64(1);  // Query id.
  framed.SendU64(1);  // Record count.
  framed.Flush();     // The wedge reads nothing until the verdict.

  // Other sessions are served while the wedge is pending cancellation.
  ClassificationClient live(ClientFor(server));
  const std::vector<int>& row = data_.row(14);
  EXPECT_EQ(live.Classify(row), pipeline->PlaintextPredict(row));

  // The wedged peer's next frame is the typed kCancelled verdict.
  EXPECT_EQ(framed.RecvU64(),
            static_cast<uint64_t>(serve::ReplyStatus::kCancelled));
  ASSERT_TRUE(WaitFor([&] { return server.stats().queries_cancelled >= 1; }));
  EXPECT_EQ(server.stats().queries_cancelled, 1u);  // Not the live session.

  // The freed worker and the rest of the server keep serving.
  EXPECT_EQ(live.Classify(row), pipeline->PlaintextPredict(row));
  ASSERT_TRUE(WaitFor([&] { return server.stats().queries_served >= 2; }));
}

TEST_F(ServeTest, ForgedOrReplayedTicketFallsBackToFullHandshake) {
  if (serve::ResumeDisabledByEnv()) GTEST_SKIP() << "PAFS_NO_RESUME set";
  auto pipeline = MakePipeline(ClassifierKind::kNaiveBayes);
  ClassificationServer server(ServingModel::FromPipeline(*pipeline),
                              ServerConfig{});
  server.Start();

  auto hello_with = [&](const std::vector<uint8_t>& ticket,
                        std::unique_ptr<SocketChannel>& socket,
                        std::unique_ptr<FramedChannel>& framed) {
    socket = SocketConnect(server.address(), 2.0 * kTimeScale);
    socket->set_recv_timeout_seconds(5.0 * kTimeScale);
    framed = std::make_unique<FramedChannel>(*socket);
    serve::ClientHello hello;
    hello.ticket = ticket;
    serve::SendClientHello(*framed, hello);
    return framed->RecvU64();
  };

  // A forged ticket (right shape, never issued) must miss and degrade to a
  // full handshake — never a crash, never someone else's session state.
  std::unique_ptr<SocketChannel> s1;
  std::unique_ptr<FramedChannel> f1;
  std::vector<uint8_t> forged(serve::kResumeTicketBytes, 0xAB);
  ASSERT_EQ(hello_with(forged, s1, f1),
            static_cast<uint64_t>(serve::ReplyStatus::kOk));
  serve::RecvSessionSetup(*f1);
  Rng rng(0xF1);
  OtExtReceiver ot1;
  ot1.Setup(*f1, rng);
  std::vector<uint8_t> issued = serve::RecvTicketFrame(*f1);
  ASSERT_EQ(issued.size(), serve::kResumeTicketBytes);
  s1->Close();
  ASSERT_TRUE(WaitFor([&] { return server.stats().resume_misses >= 1; }));

  // A genuine ticket resumes once...
  std::unique_ptr<SocketChannel> s2;
  std::unique_ptr<FramedChannel> f2;
  ASSERT_EQ(hello_with(issued, s2, f2),
            static_cast<uint64_t>(serve::ReplyStatus::kResumed));
  serve::RecvTicketFrame(*f2);
  s2->Close();

  // ...and a replay of the spent ticket misses (consume-on-use rotation).
  std::unique_ptr<SocketChannel> s3;
  std::unique_ptr<FramedChannel> f3;
  ASSERT_EQ(hello_with(issued, s3, f3),
            static_cast<uint64_t>(serve::ReplyStatus::kOk));
  serve::RecvSessionSetup(*f3);
  OtExtReceiver ot3;
  ot3.Setup(*f3, rng);
  serve::RecvTicketFrame(*f3);

  ServerStats stats = server.stats();
  EXPECT_EQ(stats.resumptions, 1u);
  EXPECT_EQ(stats.resume_misses, 2u);
}

TEST_F(ServeTest, ByeDropsTheSessionsResumeEntry) {
  // A client that said bye never presents its ticket again, so the server
  // frees the session's resume entry (OT state, pads, garbled tables) at
  // the bye. A ticket presented after a bye misses and degrades to a full
  // handshake.
  if (serve::ResumeDisabledByEnv()) GTEST_SKIP() << "PAFS_NO_RESUME set";
  auto pipeline = MakePipeline(ClassifierKind::kNaiveBayes);
  ClassificationServer server(ServingModel::FromPipeline(*pipeline),
                              ServerConfig{});
  server.Start();
  const std::vector<int>& row = data_.row(21);

  auto socket = SocketConnect(server.address(), 2.0 * kTimeScale);
  socket->set_recv_timeout_seconds(30 * kTimeScale);
  FramedChannel framed(*socket);
  std::vector<uint8_t> ticket;
  OtExtReceiver ot;
  serve::SessionSetup setup = RawHandshake(framed, &ot, &ticket);
  ASSERT_EQ(ticket.size(), serve::kResumeTicketBytes);
  SendQueryHead(framed, 1, setup, row);
  EXPECT_EQ(framed.RecvU64(), static_cast<uint64_t>(serve::ReplyStatus::kOk));
  EXPECT_EQ(RunRawClient(framed, setup, {row}, ot)[0],
            pipeline->PlaintextPredict(row));
  Rng refill_rng(0x5EED);
  std::unique_ptr<OtReceiverPadPool> pads = RawPadPool(setup);
  RefillReceiverPads(framed, ot, refill_rng, pads.get());
  EXPECT_EQ(framed.RecvU64(), static_cast<uint64_t>(serve::ReplyStatus::kOk));
  framed.SendU64(static_cast<uint64_t>(serve::RequestTag::kBye));
  framed.Flush();
  ASSERT_TRUE(WaitFor([&] { return server.stats().sessions_closed >= 1; }));
  socket->Close();

  auto socket2 = SocketConnect(server.address(), 2.0 * kTimeScale);
  socket2->set_recv_timeout_seconds(30 * kTimeScale);
  FramedChannel framed2(*socket2);
  serve::ClientHello hello;
  hello.ticket = ticket;
  serve::SendClientHello(framed2, hello);
  ASSERT_EQ(framed2.RecvU64(), static_cast<uint64_t>(serve::ReplyStatus::kOk));
  serve::SessionSetup setup2 = serve::RecvSessionSetup(framed2);
  OtExtReceiver ot2;
  Rng rng(0xB7E);
  ot2.Setup(framed2, rng);
  EXPECT_EQ(serve::RecvTicketFrame(framed2).size(), serve::kResumeTicketBytes);
  // The fresh session answers like any other.
  SendQueryHead(framed2, 1, setup2, row);
  EXPECT_EQ(framed2.RecvU64(), static_cast<uint64_t>(serve::ReplyStatus::kOk));
  EXPECT_EQ(RunRawClient(framed2, setup2, {row}, ot2)[0],
            pipeline->PlaintextPredict(row));

  ServerStats stats = server.stats();
  EXPECT_EQ(stats.resume_misses, 1u);
  EXPECT_EQ(stats.resumptions, 0u);
  EXPECT_EQ(stats.sessions_failed, 0u);
}

TEST_F(ServeTest, ResumeCacheEvictsTheLeastRecentlyRefreshedTicket) {
  // A full cache evicts by refresh order, not insertion order: `a` opens
  // first but its query refreshes its entry after `b` opened, so when `c`
  // overflows a two-entry cache, `b`'s ticket is the one that goes.
  if (serve::ResumeDisabledByEnv()) GTEST_SKIP() << "PAFS_NO_RESUME set";
  auto pipeline = MakePipeline(ClassifierKind::kNaiveBayes);
  ServerConfig config;
  config.resume_cache_entries = 2;
  ClassificationServer server(ServingModel::FromPipeline(*pipeline), config);
  server.Start();
  const std::vector<int>& row = data_.row(17);

  ClassificationClient a(ClientFor(server));
  ClassificationClient b(ClientFor(server));
  EXPECT_EQ(a.Classify(row), pipeline->PlaintextPredict(row));
  ClassificationClient c(ClientFor(server));
  // `b` goes last: its miss re-handshakes and evicts whichever entry is
  // oldest by then.
  for (ClassificationClient* client : {&a, &c, &b}) {
    client->DropConnection();
    EXPECT_EQ(client->Classify(row), pipeline->PlaintextPredict(row));
  }
  EXPECT_EQ(a.resumes(), 1u);
  EXPECT_EQ(c.resumes(), 1u);
  EXPECT_EQ(b.resumes(), 0u);
  EXPECT_EQ(b.reconnects(), 1u);
  ServerStats stats = server.stats();
  EXPECT_EQ(stats.resumptions, 2u);
  EXPECT_EQ(stats.resume_misses, 1u);
}

TEST_F(ServeTest, RetryWithoutTranscriptIsAnsweredResync) {
  // A request larger than max_replay_bytes keeps no transcript, so a retry
  // of its id cannot be replayed: the server drains the retry's records
  // and answers kResync in the admission slot. Nothing fails — the session
  // keeps serving, and so does the server.
  auto pipeline = MakePipeline(ClassifierKind::kNaiveBayes);
  ServerConfig config;
  config.max_replay_bytes = 64;  // Far below one query's transcript.
  ClassificationServer server(ServingModel::FromPipeline(*pipeline), config);
  server.Start();
  const std::vector<int>& row = data_.row(33);
  const std::vector<int>& row2 = data_.row(433);

  auto socket = SocketConnect(server.address(), 2.0 * kTimeScale);
  socket->set_recv_timeout_seconds(30 * kTimeScale);
  FramedChannel framed(*socket);
  OtExtReceiver ot;
  serve::SessionSetup setup = RawHandshake(framed, &ot);
  Rng refill_rng(0x5EED);
  std::unique_ptr<OtReceiverPadPool> pads = RawPadPool(setup);
  auto run_query = [&](uint64_t id, const std::vector<int>& r) {
    SendQueryHead(framed, id, setup, r);
    EXPECT_EQ(framed.RecvU64(),
              static_cast<uint64_t>(serve::ReplyStatus::kOk));
    // Transfers run unpooled, so query 1's refill fills both pools and
    // query 2's refills nothing.
    int pred = RunRawClient(framed, setup, {r}, ot)[0];
    RefillReceiverPads(framed, ot, refill_rng, pads.get());
    EXPECT_EQ(framed.RecvU64(),
              static_cast<uint64_t>(serve::ReplyStatus::kOk));
    return pred;
  };
  EXPECT_EQ(run_query(1, row), pipeline->PlaintextPredict(row));
  // The retry of id 1: its head is read, then the verdict.
  SendQueryHead(framed, 1, setup, row);
  EXPECT_EQ(framed.RecvU64(),
            static_cast<uint64_t>(serve::ReplyStatus::kResync));
  // The same session runs the next id live.
  EXPECT_EQ(run_query(2, row2), pipeline->PlaintextPredict(row2));
  framed.SendU64(static_cast<uint64_t>(serve::RequestTag::kBye));
  framed.Flush();

  ClassificationClient client(ClientFor(server));
  EXPECT_EQ(client.Classify(row), pipeline->PlaintextPredict(row));
  client.Close();
  server.Stop();
  ServerStats stats = server.stats();
  EXPECT_EQ(stats.resyncs, 1u);
  EXPECT_EQ(stats.replay_hits, 0u);
  EXPECT_EQ(stats.queries_served, 3u);
  EXPECT_EQ(stats.sessions_failed, 0u);
}

TEST_F(ServeTest, ExpiredTicketFallsBackToFullHandshake) {
  // A ticket presented after resume_ticket_ttl_seconds misses: the
  // reconnect runs the full handshake with fresh base OTs on both ends,
  // and the answer is unchanged.
  if (serve::ResumeDisabledByEnv()) GTEST_SKIP() << "PAFS_NO_RESUME set";
  PafsTelemetry::Enable();
  auto pipeline = MakePipeline(ClassifierKind::kNaiveBayes);
  ServerConfig config;
  config.resume_ticket_ttl_seconds = 0.05;
  ClassificationServer server(ServingModel::FromPipeline(*pipeline), config);
  server.Start();
  obs::Counter& setups = obs::GetCounter("ot.base.setups");
  const std::vector<int>& row = data_.row(61);

  ClassificationClient client(ClientFor(server));
  EXPECT_EQ(client.Classify(row), pipeline->PlaintextPredict(row));
  ASSERT_TRUE(WaitFor([&] { return server.stats().queries_served >= 1; }));
  client.DropConnection();
  std::this_thread::sleep_for(std::chrono::duration<double>(
      4 * config.resume_ticket_ttl_seconds));

  const uint64_t setups_before = setups.value();
  const uint64_t misses_before = server.stats().resume_misses;
  EXPECT_EQ(client.Classify(row), pipeline->PlaintextPredict(row));
  EXPECT_EQ(setups.value(), setups_before + 2);  // Both OT endpoints.
  EXPECT_EQ(server.stats().resume_misses, misses_before + 1);
  EXPECT_EQ(client.reconnects(), 1u);
  EXPECT_EQ(client.resumes(), 0u);
  PafsTelemetry::Disable();
}

TEST_F(ServeTest, StalePeersFailTypedAndServerKeepsServing) {
  // Wire v9 changed the base-OT flights and v11 dropped the refill ask: v8
  // and v10 hellos are refused typed. A peer that sends the tag of the
  // kQuery v8 retired fails its own session typed, like any unknown tag.
  // None takes the server down.
  auto pipeline = MakePipeline(ClassifierKind::kNaiveBayes);
  ClassificationServer server(ServingModel::FromPipeline(*pipeline),
                              ServerConfig{});
  server.Start();
  uint64_t failed = 0;
  for (uint64_t version : {8, 10}) {
    SCOPED_TRACE(version);
    auto socket = SocketConnect(server.address(), 2.0 * kTimeScale);
    socket->set_recv_timeout_seconds(5.0 * kTimeScale);
    FramedChannel framed(*socket);
    serve::ClientHello hello;
    hello.version = version;
    serve::SendClientHello(framed, hello);
    EXPECT_EQ(framed.RecvU64(),
              static_cast<uint64_t>(serve::ReplyStatus::kRejected));
    EXPECT_THROW(framed.RecvU64(), ChannelError);
    ++failed;
    ASSERT_TRUE(
        WaitFor([&] { return server.stats().sessions_failed >= failed; }));
  }
  {
    auto socket = SocketConnect(server.address(), 2.0 * kTimeScale);
    socket->set_recv_timeout_seconds(5.0 * kTimeScale);
    FramedChannel framed(*socket);
    RawHandshake(framed);
    EXPECT_THROW(
        {
          framed.SendU64(1);  // The retired kQuery tag...
          framed.SendU64(1);  // ...and what its query id would be.
          (void)framed.RecvU64();
        },
        TransportError);
  }
  ASSERT_TRUE(WaitFor([&] { return server.stats().sessions_failed >= 3; }));
  EXPECT_EQ(server.stats().queries_served, 0u);

  ClassificationClient client(ClientFor(server));
  const std::vector<int>& row = data_.row(8);
  EXPECT_EQ(client.Classify(row), pipeline->PlaintextPredict(row));
  client.Close();
  server.Stop();
  EXPECT_EQ(server.stats().sessions_failed, 3u);
}

TEST_F(ServeTest, SmallOrderBaseOtPointFailsSessionTyped) {
  // A raw v9 client whose base-OT A is the order-2 point (0, -1): the
  // server's point decoder refuses it, the session fails typed, and the
  // server keeps serving real clients.
  auto pipeline = MakePipeline(ClassifierKind::kNaiveBayes);
  ClassificationServer server(ServingModel::FromPipeline(*pipeline),
                              ServerConfig{});
  server.Start();
  {
    auto socket = SocketConnect(server.address(), 2.0 * kTimeScale);
    socket->set_recv_timeout_seconds(5.0 * kTimeScale);
    FramedChannel framed(*socket);
    serve::SendClientHello(framed, serve::ClientHello{});
    ASSERT_EQ(framed.RecvU64(),
              static_cast<uint64_t>(serve::ReplyStatus::kOk));
    serve::RecvSessionSetup(framed);
    // y = p - 1 = 2^255 - 20, little-endian; x = 0.
    std::vector<uint8_t> point(64, 0);
    point[32] = 0xEC;
    for (int i = 33; i < 63; ++i) point[i] = 0xFF;
    point[63] = 0x7F;
    framed.SendBytes(point);
    EXPECT_THROW((void)framed.RecvBytes(), TransportError);
  }
  ASSERT_TRUE(WaitFor([&] { return server.stats().sessions_failed >= 1; }));

  ClassificationClient client(ClientFor(server));
  const std::vector<int>& row = data_.row(9);
  EXPECT_EQ(client.Classify(row), pipeline->PlaintextPredict(row));
  client.Close();
  server.Stop();
  EXPECT_EQ(server.stats().sessions_failed, 1u);
}

TEST_F(ServeTest, ResumeDisabledClientAlwaysFullHandshakes) {
  // The --no-resume escape hatch: the client ignores tickets and every
  // reconnect is a full handshake with fresh base OTs.
  auto pipeline = MakePipeline(ClassifierKind::kNaiveBayes);
  ClassificationServer server(ServingModel::FromPipeline(*pipeline),
                              ServerConfig{});
  server.Start();

  ClientConfig cc = ClientFor(server);
  cc.enable_resume = false;
  ClassificationClient client(cc);
  const std::vector<int>& row = data_.row(27);
  EXPECT_EQ(client.Classify(row), pipeline->PlaintextPredict(row));
  ASSERT_TRUE(WaitFor([&] { return server.stats().queries_served >= 1; }));
  client.DropConnection();
  EXPECT_EQ(client.Classify(row), pipeline->PlaintextPredict(row));

  EXPECT_EQ(client.reconnects(), 1u);
  EXPECT_EQ(client.resumes(), 0u);
  ASSERT_TRUE(WaitFor([&] { return server.stats().queries_served >= 2; }));
  EXPECT_EQ(server.stats().resumptions, 0u);
}

TEST_F(ServeTest, PooledLinearServingHitsPoolAndStaysCorrect) {
  // Offline/online split through the whole serving stack on the linear
  // path: query 1 registers the session's argmax circuit with the GC pool
  // and stocks both ends' OT pad pools through the lockstep refill; idle
  // workers pre-garble and expand between queries, so query 2 spends
  // pooled OTs (phase 1 and argmax labels) and a pre-garbled argmax —
  // verified by the telemetry counters.
  if (serve::PoolsDisabledByEnv()) GTEST_SKIP() << "PAFS_NO_POOL set";
  PafsTelemetry::Enable();
  auto pipeline = MakePipeline(ClassifierKind::kLinear);
  ClassificationServer server(ServingModel::FromPipeline(*pipeline),
                              ServerConfig{});
  server.Start();

  ClassificationClient client(ClientFor(server));
  const std::vector<int>& row = data_.row(7);
  EXPECT_EQ(client.Classify(row), pipeline->PlaintextPredict(row));
  ASSERT_TRUE(WaitFor([&] {
    return server.stats().gc_pregarbled >= 1 &&
           server.stats().ot_pads_precomputed >= 1;
  }));

  obs::Counter& ot_hits = obs::GetCounter("ot.pool.hit");
  obs::Counter& gc_hits = obs::GetCounter("gc.pool.hit");
  uint64_t ot_hits_before = ot_hits.value();
  uint64_t gc_hits_before = gc_hits.value();
  const std::vector<int>& row2 = data_.row(207);
  EXPECT_EQ(client.Classify(row2), pipeline->PlaintextPredict(row2));
  EXPECT_GT(ot_hits.value(), ot_hits_before);
  EXPECT_GT(gc_hits.value(), gc_hits_before);

  client.Close();
  server.Stop();
  EXPECT_EQ(server.stats().sessions_failed, 0u);
  PafsTelemetry::Disable();
}

TEST_F(ServeTest, WarmQuerySendsOneFlightPerTurn) {
  // The client's framed channel coalesces each flight (everything sent
  // before its next Recv) into one socket write, so a warm query makes at
  // most one write per direction flip, plus the request that opens it. A
  // warm NB query's flights are its request head, its label OT and, on a
  // pooled session, the lockstep refill's columns: no refill count is
  // asked or granted, so every send starts a new turn.
  for (ClassifierKind kind :
       {ClassifierKind::kNaiveBayes, ClassifierKind::kLinear,
        ClassifierKind::kForest}) {
    SCOPED_TRACE(ClassifierName(kind));
    auto pipeline = MakePipeline(kind);
    ClassificationServer server(ServingModel::FromPipeline(*pipeline),
                                ServerConfig{});
    server.Start();
    ClassificationClient client(ClientFor(server));
    const std::vector<int>& row = data_.row(21);
    EXPECT_EQ(client.Classify(row), pipeline->PlaintextPredict(row));

    const ChannelStats before = client.wire_stats();
    const std::vector<int>& row2 = data_.row(322);
    EXPECT_EQ(client.Classify(row2), pipeline->PlaintextPredict(row2));
    const ChannelStats& after = client.wire_stats();
    const uint64_t sent = after.messages_sent - before.messages_sent;
    const uint64_t flips = after.direction_flips - before.direction_flips;
    EXPECT_LE(sent, flips + 1);
    if (kind == ClassifierKind::kNaiveBayes) {
      // Pins the fault-plan offsets the chaos tests aim with. An unpooled
      // session (PAFS_NO_POOL=1 announces depth 0) sends no refill flight.
      const uint64_t refill =
          client.setup().ot_pool_depth > 0 ? 0 : kFrameSends;
      EXPECT_EQ(sent, kRequestHeadSends + kNbQueryTailSends - refill);
      EXPECT_EQ(flips, sent);
    }
    client.Close();
  }
}

TEST_F(ServeTest, PoolsDisabledByConfigStillServes) {
  auto pipeline = MakePipeline(ClassifierKind::kLinear);
  ServerConfig config;
  config.gc_pool_depth = 0;
  config.ot_pool_depth = 0;
  ClassificationServer server(ServingModel::FromPipeline(*pipeline), config);
  server.Start();
  ClassificationClient client(ClientFor(server));
  const std::vector<int>& row = data_.row(55);
  EXPECT_EQ(client.Classify(row), pipeline->PlaintextPredict(row));
  EXPECT_EQ(client.Classify(row), pipeline->PlaintextPredict(row));
  client.Close();
  server.Stop();
  EXPECT_EQ(server.stats().gc_pregarbled, 0u);
  EXPECT_EQ(server.stats().ot_pads_precomputed, 0u);
  EXPECT_EQ(server.stats().sessions_failed, 0u);
}

TEST_F(ServeTest, StopMidRefillDrainsCleanly) {
  // Drain vs. background filler (the TSan target): GC and OT pool targets
  // far past what one inter-query gap can fill guarantee a filler is in
  // flight when Stop() lands. The stop flag is polled between garbles, so
  // the drain must come back without waiting for the full target.
  auto pipeline = MakePipeline(ClassifierKind::kLinear);
  ServerConfig config;
  config.gc_pool_depth = 1 << 20;
  config.ot_pool_depth = 1 << 16;
  ClassificationServer server(ServingModel::FromPipeline(*pipeline), config);
  server.Start();
  // The client sizes its pool to the announced depth, so the first refill
  // is a large one.
  ClassificationClient client(ClientFor(server));
  const std::vector<int>& row = data_.row(3);
  EXPECT_EQ(client.Classify(row), pipeline->PlaintextPredict(row));
  // The filler kicked off when the session went idle; stop under it.
  server.Stop();
  EXPECT_FALSE(server.running());
  EXPECT_LT(server.stats().gc_pregarbled, uint64_t{1} << 20);
  client.Close();
}

TEST_F(ServeTest, PooledLinearRetryReplaysByteIdentical) {
  // At-most-once on the pooled linear path, enforced by the server itself:
  // a raw client built from the protocol pieces spends pooled OT pads in
  // query 2, loses the reply, restores its post-query-1 snapshot (pads
  // included) and retries the same id. The server replays the recorded
  // transcript and fails the session on the first diverging byte — so this
  // passes only if the restored pads reproduce the original corrections.
  if (serve::ResumeDisabledByEnv()) GTEST_SKIP() << "PAFS_NO_RESUME set";
  auto pipeline = MakePipeline(ClassifierKind::kLinear);
  ClassificationServer server(ServingModel::FromPipeline(*pipeline),
                              ServerConfig{});
  server.Start();
  const std::vector<int>& row = data_.row(5);
  const std::vector<int>& row2 = data_.row(402);

  auto socket = SocketConnect(server.address(), 2.0 * kTimeScale);
  socket->set_recv_timeout_seconds(30 * kTimeScale);
  FramedChannel framed(*socket);
  std::vector<uint8_t> ticket;
  OtExtReceiver ot;
  serve::SessionSetup setup = RawHandshake(framed, &ot, &ticket);
  ASSERT_EQ(ticket.size(), serve::kResumeTicketBytes);
  const bool pooled = setup.ot_pool_depth > 0;

  auto run_query = [&](FramedChannel& ch, uint64_t id,
                       const std::vector<int>& r_row, OtExtReceiver& o,
                       Rng& r, OtReceiverPadPool* pads) {
    SendQueryHead(ch, id, setup, r_row);
    EXPECT_EQ(ch.RecvU64(), static_cast<uint64_t>(serve::ReplyStatus::kOk));
    int pred = RunRawClient(ch, setup, {r_row}, o, pads)[0];
    RefillReceiverPads(ch, o, r, pads);
    EXPECT_EQ(ch.RecvU64(), static_cast<uint64_t>(serve::ReplyStatus::kOk));
    return pred;
  };

  // Query 1 runs unpooled and stocks both ends' pad pools.
  Rng rng(0xABCD);
  std::unique_ptr<OtReceiverPadPool> pads = RawPadPool(setup);
  EXPECT_EQ(run_query(framed, 1, row, ot, rng, pads.get()),
            pipeline->PlaintextPredict(row));
  if (pooled) {
    EXPECT_EQ(pads->depth(), static_cast<size_t>(setup.ot_pool_depth));
  }

  // Snapshot the post-query-1 client state — exactly what a crashed
  // client would restore before retrying query 2.
  const OtExtReceiver ot_snapshot = ot;
  const Rng rng_snapshot = rng;
  OtReceiverPadPool::State pads_snapshot;
  if (pooled) pads_snapshot = pads->snapshot();
  int first = run_query(framed, 2, row2, ot, rng, pads.get());
  EXPECT_EQ(first, pipeline->PlaintextPredict(row2));
  if (pooled) {
    EXPECT_GT(pads->stats().hits, 0u);
  }
  ASSERT_TRUE(WaitFor([&] { return server.stats().queries_served >= 2; }));

  // "Crash": rewind to the snapshot and retry query 2 with the ticket.
  socket->Close();
  OtExtReceiver ot_retry = ot_snapshot;
  Rng rng_retry = rng_snapshot;
  std::unique_ptr<OtReceiverPadPool> pads_retry = RawPadPool(setup);
  if (pooled) pads_retry->Restore(pads_snapshot);
  auto socket2 = SocketConnect(server.address(), 2.0 * kTimeScale);
  socket2->set_recv_timeout_seconds(30 * kTimeScale);
  FramedChannel framed2(*socket2);
  serve::ClientHello hello;
  hello.ticket = ticket;
  serve::SendClientHello(framed2, hello);
  ASSERT_EQ(framed2.RecvU64(),
            static_cast<uint64_t>(serve::ReplyStatus::kResumed));
  (void)serve::RecvTicketFrame(framed2);

  int retry =
      run_query(framed2, 2, row2, ot_retry, rng_retry, pads_retry.get());
  EXPECT_EQ(retry, first);
  if (pooled) {
    EXPECT_GT(pads_retry->stats().hits, 0u);
  }
  ASSERT_TRUE(WaitFor([&] { return server.stats().replay_hits >= 1; }));
  ServerStats stats = server.stats();
  EXPECT_EQ(stats.replay_hits, 1u);
  // Query 2 executed exactly once; a divergence would have failed the
  // retry's recvs above instead of replaying to completion.
  EXPECT_EQ(stats.queries_served, 2u);
}

TEST_F(ServeTest, DivergentRetryFailsTypedBeforeTheLabelTransfer) {
  // A retry must be the same conversation, not just the same query id. A
  // client that rewinds its OT stream and retries id 1 with the same
  // disclosed values but a different hidden value would, if the server
  // answered from the transcript regardless, learn the other label of
  // every wire where its choice changed. The replay checks each received
  // frame before its next send: the recorded prefix (admission ack, tables)
  // goes out, the first diverging OT frame fails the session typed, and the
  // recorded label messages never leave.
  auto pipeline = MakePipeline(ClassifierKind::kNaiveBayes);
  ClassificationServer server(ServingModel::FromPipeline(*pipeline),
                              ServerConfig{});
  server.Start();
  const std::vector<int>& row = data_.row(5);

  auto socket = SocketConnect(server.address(), 2.0 * kTimeScale);
  socket->set_recv_timeout_seconds(30 * kTimeScale);
  FramedChannel framed(*socket);
  OtExtReceiver ot;
  serve::SessionSetup setup = RawHandshake(framed, &ot);
  const OtExtReceiver ot_snapshot = ot;

  // Query 1 runs to its completion ack (with the lockstep refill).
  SendQueryHead(framed, 1, setup, row);
  ASSERT_EQ(framed.RecvU64(), static_cast<uint64_t>(serve::ReplyStatus::kOk));
  std::unique_ptr<OtReceiverPadPool> pads = RawPadPool(setup);
  EXPECT_EQ(RunRawClient(framed, setup, {row}, ot, pads.get())[0],
            pipeline->PlaintextPredict(row));
  Rng refill_rng(0x5EED);
  RefillReceiverPads(framed, ot, refill_rng, pads.get());
  ASSERT_EQ(framed.RecvU64(), static_cast<uint64_t>(serve::ReplyStatus::kOk));

  // The same disclosure with one hidden value changed.
  std::vector<int> changed = row;
  int hidden = 0;
  while (std::find(setup.plan_features.begin(), setup.plan_features.end(),
                   hidden) != setup.plan_features.end()) {
    ++hidden;
  }
  changed[hidden] = (row[hidden] + 1) % setup.features[hidden].cardinality;
  std::map<int, int> placeholders;
  for (int f : setup.plan_features) placeholders.emplace(f, 0);
  SecureNbCircuit nb(setup.features, setup.num_classes, placeholders);
  BitVec evaluator_bits = nb.EncodeRow(changed);
  ASSERT_FALSE(evaluator_bits == nb.EncodeRow(row));

  // Retry id 1 on the rewound OT stream: the replayed prefix arrives, and
  // the label OT's first receive finds the session failed.
  OtExtReceiver ot_retry = ot_snapshot;
  SendQueryHead(framed, 1, setup, changed);
  ASSERT_EQ(framed.RecvU64(), static_cast<uint64_t>(serve::ReplyStatus::kOk));
  GcEvaluatorPulled pulled = GcEvaluatorPullBatch(framed, {&nb.circuit()});
  EXPECT_THROW(GcEvaluatorOnlineBatch(framed, std::move(pulled),
                                      {{&nb.circuit(), &evaluator_bits}},
                                      ot_retry),
               ChannelError);
  ASSERT_TRUE(WaitFor([&] { return server.stats().sessions_failed >= 1; }));

  ClassificationClient client(ClientFor(server));
  EXPECT_EQ(client.Classify(row), pipeline->PlaintextPredict(row));
  client.Close();
  server.Stop();
  ServerStats stats = server.stats();
  EXPECT_EQ(stats.sessions_failed, 1u);
  EXPECT_EQ(stats.replay_hits, 0u);
  EXPECT_EQ(stats.queries_served, 2u);
}

TEST_F(ServeTest, ResumedSessionCarriesPrecomputedPads) {
  // The pool snapshot rides the resumption ticket on the linear path too:
  // after a crash-like reconnect, the restored session's first query still
  // finds the pre-garbled argmax and the OT pads computed before the drop.
  if (serve::ResumeDisabledByEnv()) GTEST_SKIP() << "PAFS_NO_RESUME set";
  if (serve::PoolsDisabledByEnv()) GTEST_SKIP() << "PAFS_NO_POOL set";
  PafsTelemetry::Enable();
  auto pipeline = MakePipeline(ClassifierKind::kLinear);
  ServerConfig config;
  config.gc_pool_depth = 2;
  ClassificationServer server(ServingModel::FromPipeline(*pipeline), config);
  server.Start();

  ClassificationClient client(ClientFor(server));
  const std::vector<int>& row = data_.row(42);
  EXPECT_EQ(client.Classify(row), pipeline->PlaintextPredict(row));
  // Wait for the fillers to stock the pools, then one more query so the
  // resume snapshot (refreshed post-query) includes non-empty pools.
  ASSERT_TRUE(WaitFor([&] {
    return server.stats().gc_pregarbled >= 2 &&
           server.stats().ot_pads_precomputed >= 1;
  }));
  EXPECT_EQ(client.Classify(row), pipeline->PlaintextPredict(row));
  ASSERT_TRUE(WaitFor([&] { return server.stats().queries_served >= 2; }));

  obs::Counter& gc_hits = obs::GetCounter("gc.pool.hit");
  obs::Counter& gc_misses = obs::GetCounter("gc.pool.miss");
  obs::Counter& ot_hits = obs::GetCounter("ot.pool.hit");
  obs::Counter& ot_misses = obs::GetCounter("ot.pool.miss");
  uint64_t gc_hits_before = gc_hits.value();
  uint64_t gc_misses_before = gc_misses.value();
  uint64_t ot_hits_before = ot_hits.value();
  uint64_t ot_misses_before = ot_misses.value();

  client.DropConnection();
  EXPECT_EQ(client.Classify(row), pipeline->PlaintextPredict(row));
  EXPECT_EQ(client.resumes(), 1u);
  // The resumed query's argmax and every OT came out of the restored pools.
  EXPECT_GT(gc_hits.value(), gc_hits_before);
  EXPECT_EQ(gc_misses.value(), gc_misses_before);
  EXPECT_GT(ot_hits.value(), ot_hits_before);
  EXPECT_EQ(ot_misses.value(), ot_misses_before);
  client.Close();
  server.Stop();
  PafsTelemetry::Disable();
}

TEST_F(ServeTest, ServerRestartsOnSameConfig) {
  auto pipeline = MakePipeline(ClassifierKind::kNaiveBayes);
  ServingModel model = ServingModel::FromPipeline(*pipeline);
  const std::vector<int>& row = data_.row(64);
  for (int round = 0; round < 2; ++round) {
    ClassificationServer server(model, ServerConfig{});
    server.Start();
    ClassificationClient client(ClientFor(server));
    EXPECT_EQ(client.Classify(row), pipeline->PlaintextPredict(row));
    client.Close();
    server.Stop();
  }
}

// ---------------------------------------------------------------------------
// Cross-query batching (wire v4) and the GC/OT precompute pools.

TEST_F(ServeTest, BatchMatchesPlaintextAcrossClassifiers) {
  for (ClassifierKind kind :
       {ClassifierKind::kNaiveBayes, ClassifierKind::kDecisionTree,
        ClassifierKind::kLinear, ClassifierKind::kForest}) {
    auto pipeline = MakePipeline(kind);
    ClassificationServer server(ServingModel::FromPipeline(*pipeline),
                                ServerConfig{});
    server.Start();
    ClassificationClient client(ClientFor(server));

    std::vector<std::vector<int>> rows;
    for (int i = 0; i < 6; ++i) rows.push_back(data_.row(i * 119 + 3));
    rows.push_back(rows.front());  // Repeated disclosure: shared prelude.
    SmcRunStats stats;
    std::vector<int> preds = client.ClassifyBatch(rows, &stats);
    ASSERT_EQ(preds.size(), rows.size());
    for (size_t i = 0; i < rows.size(); ++i) {
      EXPECT_EQ(preds[i], pipeline->PlaintextPredict(rows[i]))
          << ClassifierName(kind) << " record " << i;
    }
    EXPECT_GT(stats.bytes, 0u);
    EXPECT_GT(stats.and_gates, 0u) << ClassifierName(kind);

    // One kBatch request carried all seven records.
    ASSERT_TRUE(WaitFor([&] { return server.stats().batches_served >= 1; }));
    ServerStats ss = server.stats();
    EXPECT_EQ(ss.batches_served, 1u) << ClassifierName(kind);
    EXPECT_EQ(ss.batch_records, rows.size()) << ClassifierName(kind);

    // A batch answers exactly as per-row queries do, and a one-row batch
    // reports the same circuit size as the query for that row.
    for (size_t i = 0; i < rows.size(); ++i) {
      EXPECT_EQ(client.Classify(rows[i]), preds[i])
          << ClassifierName(kind) << " record " << i;
    }
    SmcRunStats one_row;
    client.ClassifyBatch({rows[1]}, &one_row);
    EXPECT_EQ(one_row.and_gates, client.ClassifyWithStats(rows[1]).and_gates)
        << ClassifierName(kind);
    // The pipeline runs the same two drivers in process: the same answer
    // over the same circuit.
    SmcRunStats piped = pipeline->Classify(rows[1]);
    EXPECT_EQ(piped.predicted_class, preds[1]) << ClassifierName(kind);
    EXPECT_EQ(piped.and_gates, client.ClassifyWithStats(rows[1]).and_gates)
        << ClassifierName(kind);
    client.Close();
    server.Stop();
    EXPECT_EQ(server.stats().sessions_failed, 0u);
  }
}

TEST_F(ServeTest, BatchChunksAtServerAnnouncedCap) {
  // The record cap travels in the handshake: a default client against a
  // server with a smaller cap chunks to the server's value, so no request
  // overruns it and nothing has to fail and retry.
  auto pipeline = MakePipeline(ClassifierKind::kNaiveBayes);
  ServerConfig config;
  config.batch_max_records = 4;
  ClassificationServer server(ServingModel::FromPipeline(*pipeline), config);
  server.Start();
  ClassificationClient client(ClientFor(server));
  EXPECT_EQ(client.setup().batch_max_records, 4);

  std::vector<std::vector<int>> rows;
  for (int i = 0; i < 10; ++i) rows.push_back(data_.row(i * 77 + 11));
  std::vector<int> preds = client.ClassifyBatch(rows);
  ASSERT_EQ(preds.size(), rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(preds[i], pipeline->PlaintextPredict(rows[i]));
  }
  EXPECT_EQ(client.retries(), 0u);
  // 10 records at cap 4 → requests of 4 + 4 + 2.
  ASSERT_TRUE(WaitFor([&] { return server.stats().batches_served >= 3; }));
  ServerStats ss = server.stats();
  EXPECT_EQ(ss.queries_served, 3u);
  EXPECT_EQ(ss.batches_served, 3u);
  EXPECT_EQ(ss.batch_records, rows.size());
  client.Close();
  server.Stop();
  EXPECT_EQ(server.stats().sessions_failed, 0u);
}

TEST_F(ServeTest, ClientPoolFillsToServerAnnouncedDepth) {
  // The OT pad-pool depth travels in the handshake too: with no client
  // setting, the receiver pool's target is the server's depth, and the
  // lockstep refill fills it there.
  if (serve::PoolsDisabledByEnv()) GTEST_SKIP() << "PAFS_NO_POOL set";
  auto pipeline = MakePipeline(ClassifierKind::kNaiveBayes);
  ServerConfig config;
  config.ot_pool_depth = 1000;
  ClassificationServer server(ServingModel::FromPipeline(*pipeline), config);
  server.Start();
  ClassificationClient client(ClientFor(server));
  EXPECT_EQ(client.setup().ot_pool_depth, 1000);
  EXPECT_EQ(client.ot_pads_ready(), 0u);  // A fresh session starts empty.
  const std::vector<int>& row = data_.row(19);
  EXPECT_EQ(client.Classify(row), pipeline->PlaintextPredict(row));
  EXPECT_EQ(client.ot_pads_ready(), 1000u);
  EXPECT_EQ(client.Classify(row), pipeline->PlaintextPredict(row));
  EXPECT_EQ(client.ot_pads_ready(), 1000u);  // Spent, then topped up.
  client.Close();
  server.Stop();
  EXPECT_EQ(server.stats().sessions_failed, 0u);
}

TEST_F(ServeTest, LinearBatchRunsAsOneExchange) {
  // Linear rows batch like the GC kinds: every record's phase-1 OTs go in
  // one correlated transfer and every argmax in one garbled exchange.
  auto pipeline = MakePipeline(ClassifierKind::kLinear);
  ClassificationServer server(ServingModel::FromPipeline(*pipeline),
                              ServerConfig{});
  server.Start();
  ClassificationClient client(ClientFor(server));

  std::vector<std::vector<int>> rows;
  for (int i = 0; i < 3; ++i) rows.push_back(data_.row(i * 201 + 5));
  SmcRunStats stats;
  std::vector<int> preds = client.ClassifyBatch(rows, &stats);
  ASSERT_EQ(preds.size(), rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(preds[i], pipeline->PlaintextPredict(rows[i]));
  }
  EXPECT_GT(stats.bytes, 0u);
  ASSERT_TRUE(WaitFor([&] { return server.stats().batches_served >= 1; }));
  ServerStats ss = server.stats();
  EXPECT_EQ(ss.batches_served, 1u);
  EXPECT_EQ(ss.batch_records, rows.size());
  EXPECT_EQ(ss.queries_served, 1u);
  client.Close();
  server.Stop();
  EXPECT_EQ(server.stats().sessions_failed, 0u);
}

TEST_F(ServeTest, OversizedBatchHeaderFailsTyped) {
  auto pipeline = MakePipeline(ClassifierKind::kNaiveBayes);
  ServerConfig config;
  config.batch_max_records = 4;
  ClassificationServer server(ServingModel::FromPipeline(*pipeline), config);
  server.Start();

  auto socket = SocketConnect(server.address(), 2.0 * kTimeScale);
  socket->set_recv_timeout_seconds(5.0 * kTimeScale);
  FramedChannel framed(*socket);
  RawHandshake(framed);
  framed.SendU64(static_cast<uint64_t>(serve::RequestTag::kBatch));
  framed.SendU64(1);  // Query id.
  framed.SendU64(5);  // One past the server's cap: refused before any work.
  EXPECT_THROW(framed.RecvU64(), ChannelError);
  ASSERT_TRUE(WaitFor([&] { return server.stats().sessions_failed >= 1; }));
  server.Stop();
}

TEST_F(ServeTest, ResumedSessionRestoresGcAndOtPools) {
  // Satellite (c), public-client half: the resumption snapshot carries the
  // GC pool (pre-garbled circuits) and both OT pad pools. A post-crash
  // reconnect resumes with ZERO base-OT re-runs and its first query still
  // runs fully pooled — no GC garble on the critical path, no online OT
  // fallback.
  if (serve::ResumeDisabledByEnv()) GTEST_SKIP() << "PAFS_NO_RESUME set";
  if (serve::PoolsDisabledByEnv()) GTEST_SKIP() << "PAFS_NO_POOL set";
  PafsTelemetry::Enable();
  auto pipeline = MakePipeline(ClassifierKind::kDecisionTree);
  ServerConfig config;
  config.gc_pool_depth = 2;
  ClassificationServer server(ServingModel::FromPipeline(*pipeline), config);
  server.Start();

  ClassificationClient client(ClientFor(server));
  const std::vector<int>& row = data_.row(31);
  // Query 1 registers the disclosure key (a GC miss) and, through the
  // lockstep refill, stocks both ends' OT pad pools.
  EXPECT_EQ(client.Classify(row), pipeline->PlaintextPredict(row));
  ASSERT_TRUE(WaitFor([&] {
    return server.stats().gc_pregarbled >= 2 &&
           server.stats().ot_pads_precomputed >= 1;
  }));
  // Query 2 runs pooled and refreshes the snapshot with one garbled
  // circuit still ready and both OT pools deep.
  EXPECT_EQ(client.Classify(row), pipeline->PlaintextPredict(row));
  ASSERT_TRUE(WaitFor([&] { return server.stats().queries_served >= 2; }));

  obs::Counter& setups = obs::GetCounter("ot.base.setups");
  obs::Counter& gc_hits = obs::GetCounter("gc.pool.hit");
  obs::Counter& gc_misses = obs::GetCounter("gc.pool.miss");
  obs::Counter& ot_hits = obs::GetCounter("ot.pool.hit");
  obs::Counter& ot_misses = obs::GetCounter("ot.pool.miss");
  uint64_t setups_before = setups.value();
  uint64_t gc_hits_before = gc_hits.value();
  uint64_t gc_misses_before = gc_misses.value();
  uint64_t ot_hits_before = ot_hits.value();
  uint64_t ot_misses_before = ot_misses.value();

  client.DropConnection();  // Crash, as far as both ends can tell.
  EXPECT_EQ(client.Classify(row), pipeline->PlaintextPredict(row));
  EXPECT_EQ(client.resumes(), 1u);
  EXPECT_EQ(setups.value(), setups_before);  // Zero base-OT re-runs.
  // The resumed query's garbled circuit and label OTs all came out of the
  // restored pools: hits advanced, not a single miss.
  EXPECT_GT(gc_hits.value(), gc_hits_before);
  EXPECT_EQ(gc_misses.value(), gc_misses_before);
  EXPECT_GT(ot_hits.value(), ot_hits_before);
  EXPECT_EQ(ot_misses.value(), ot_misses_before);

  // And the resumed session still batches.
  std::vector<std::vector<int>> rows = {row, data_.row(301)};
  std::vector<int> preds = client.ClassifyBatch(rows);
  ASSERT_EQ(preds.size(), rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(preds[i], pipeline->PlaintextPredict(rows[i]));
  }
  ASSERT_TRUE(WaitFor([&] { return server.stats().batches_served >= 1; }));
  EXPECT_EQ(server.stats().resumptions, 1u);
  client.Close();
  server.Stop();
  PafsTelemetry::Disable();
}

TEST_F(ServeTest, RetriedBatchIsReplayedNotReExecuted) {
  // Satellite (c), raw-wire half: a batch whose completion ack is lost is
  // retried from the client's snapshot; the server answers the whole batch
  // from the recorded transcript, byte for byte — it fails the session on
  // the first diverging client byte, so this passes only if the retried
  // batch's sends are bit-identical to the originals.
  if (serve::ResumeDisabledByEnv()) GTEST_SKIP() << "PAFS_NO_RESUME set";
  auto pipeline = MakePipeline(ClassifierKind::kNaiveBayes);
  ClassificationServer server(ServingModel::FromPipeline(*pipeline),
                              ServerConfig{});
  server.Start();
  std::vector<std::vector<int>> rows = {data_.row(5), data_.row(123),
                                        data_.row(612)};

  auto socket = SocketConnect(server.address(), 2.0 * kTimeScale);
  socket->set_recv_timeout_seconds(30 * kTimeScale);
  FramedChannel framed(*socket);
  std::vector<uint8_t> ticket;
  OtExtReceiver ot;
  serve::SessionSetup setup = RawHandshake(framed, &ot, &ticket);
  ASSERT_EQ(ticket.size(), serve::kResumeTicketBytes);
  const OtExtReceiver ot_snapshot = ot;

  auto run_batch = [&](FramedChannel& ch, OtExtReceiver& o) {
    ch.SendU64(static_cast<uint64_t>(serve::RequestTag::kBatch));
    ch.SendU64(1);  // Same id both times: this is "the" batch.
    ch.SendU64(rows.size());
    for (const std::vector<int>& row : rows) {
      for (int f : setup.plan_features) {
        ch.SendU64(static_cast<uint64_t>(row[f]));
      }
    }
    EXPECT_EQ(ch.RecvU64(), static_cast<uint64_t>(serve::ReplyStatus::kOk));
    std::vector<int> preds = RunRawClient(ch, setup, rows, o);
    // The lockstep refill from the pre-batch (empty) pool and the same
    // choice stream, so the retry sends the same columns.
    Rng refill_rng(0x5EED);
    std::unique_ptr<OtReceiverPadPool> pads = RawPadPool(setup);
    RefillReceiverPads(ch, o, refill_rng, pads.get());
    EXPECT_EQ(ch.RecvU64(), static_cast<uint64_t>(serve::ReplyStatus::kOk));
    return preds;
  };

  std::vector<int> first = run_batch(framed, ot);
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(first[i], pipeline->PlaintextPredict(rows[i]));
  }
  ASSERT_TRUE(WaitFor([&] { return server.stats().batches_served >= 1; }));

  // The ack is "lost": drop the connection, rewind to the snapshot, and
  // resume with the ticket.
  socket->Close();
  OtExtReceiver ot_retry = ot_snapshot;
  auto socket2 = SocketConnect(server.address(), 2.0 * kTimeScale);
  socket2->set_recv_timeout_seconds(30 * kTimeScale);
  FramedChannel framed2(*socket2);
  serve::ClientHello hello;
  hello.ticket = ticket;
  serve::SendClientHello(framed2, hello);
  ASSERT_EQ(framed2.RecvU64(),
            static_cast<uint64_t>(serve::ReplyStatus::kResumed));
  (void)serve::RecvTicketFrame(framed2);

  std::vector<int> retry = run_batch(framed2, ot_retry);
  EXPECT_EQ(retry, first);
  ASSERT_TRUE(WaitFor([&] { return server.stats().replay_hits >= 1; }));
  ServerStats stats = server.stats();
  EXPECT_EQ(stats.replay_hits, 1u);
  // Executed exactly once: the batch counters did not move on the replay.
  EXPECT_EQ(stats.batches_served, 1u);
  EXPECT_EQ(stats.batch_records, rows.size());
}

TEST_F(ServeTest, BatchRetryAbsorbsInjectedDisconnect) {
  // At-most-once through the public client: a disconnect injected inside
  // the batch exchange is absorbed by reconnect + retry, and however the
  // fault lands relative to the server's commit point, each record is
  // executed (or replayed) exactly once.
  auto pipeline = MakePipeline(ClassifierKind::kNaiveBayes);
  ClassificationServer server(ServingModel::FromPipeline(*pipeline),
                              ServerConfig{});
  server.Start();

  ClientConfig cc = ClientFor(server);
  cc.fault_plan.kind = FaultKind::kDisconnect;
  cc.fault_plan.seed = 7;
  // Past the handshake, inside the batch: its last flight before the
  // completion ack (the refill columns, or the label OT when the server
  // runs unpooled and no refill flight follows).
  const uint64_t tail = serve::PoolsDisabledByEnv()
                            ? kNbQueryTailSends - kFrameSends
                            : kNbQueryTailSends;
  cc.fault_plan.first_op = kHelloClientSends + kBaseOtClientSends +
                           kRequestHeadSends + tail - kFrameSends;
  cc.fault_plan.max_faults = 1;
  ClassificationClient client(cc);

  std::vector<std::vector<int>> rows = {data_.row(8), data_.row(415)};
  std::vector<int> preds = client.ClassifyBatch(rows);
  ASSERT_EQ(preds.size(), rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(preds[i], pipeline->PlaintextPredict(rows[i]));
  }
  EXPECT_GE(client.reconnects(), 1u);
  ASSERT_TRUE(WaitFor([&] {
    return server.stats().batch_records >= rows.size();
  }));
  EXPECT_EQ(server.stats().batch_records, rows.size());
}

TEST(GcPoolTest, TakesAreSingleUseAndRefillRestocks) {
  CircuitBuilder b(4, 4);
  b.AddOutputWord(b.AddW(b.GarblerWord(0, 4), b.EvaluatorWord(0, 4)));
  auto circuit = std::make_shared<const Circuit>(b.Build());
  serve::GcPool pool(/*depth=*/2, /*max_keys=*/4);
  Rng rng(41);

  const std::vector<int> key = {1, 2};
  serve::GcPool::Garbled taken;
  EXPECT_FALSE(pool.TryTake(key, &taken));  // Unknown key: a miss.
  pool.RegisterKey(key, circuit);
  EXPECT_EQ(pool.Deficit(), 2u);
  EXPECT_TRUE(pool.RefillOne(rng));
  EXPECT_TRUE(pool.RefillOne(rng));
  EXPECT_EQ(pool.Deficit(), 0u);
  EXPECT_FALSE(pool.RefillOne(rng));  // Full: nothing to do.

  // Entries are single-use: two takes drain the queue, the third misses.
  EXPECT_TRUE(pool.TryTake(key, &taken));
  EXPECT_EQ(taken->input_labels.size(),
            circuit->garbler_inputs() + circuit->evaluator_inputs());
  EXPECT_TRUE(pool.TryTake(key, &taken));
  EXPECT_FALSE(pool.TryTake(key, &taken));
  serve::GcPool::Stats stats = pool.stats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.refilled, 2u);
}

TEST(GcPoolTest, EvictsLeastRecentlyUsedKeyAtCap) {
  CircuitBuilder b(2, 2);
  b.AddOutputWord(b.XorW(b.GarblerWord(0, 2), b.EvaluatorWord(0, 2)));
  auto circuit = std::make_shared<const Circuit>(b.Build());
  serve::GcPool pool(/*depth=*/1, /*max_keys=*/2);
  Rng rng(43);

  pool.RegisterKey({1}, circuit);
  EXPECT_TRUE(pool.RefillOne(rng));
  pool.RegisterKey({2}, circuit);
  pool.RegisterKey({3}, circuit);  // Over cap: {1} is LRU and falls out.

  serve::GcPool::Garbled taken;
  EXPECT_FALSE(pool.TryTake({1}, &taken));  // Evicted with its material.
  EXPECT_TRUE(pool.RefillOne(rng));
  EXPECT_TRUE(pool.RefillOne(rng));
  EXPECT_TRUE(pool.TryTake({2}, &taken));
  EXPECT_TRUE(pool.TryTake({3}, &taken));
}

TEST(GcPoolTest, RestoreServesMaterialAndDropsMismatchedShapes) {
  CircuitBuilder b(4, 4);
  b.AddOutputWord(b.AddW(b.GarblerWord(0, 4), b.EvaluatorWord(0, 4)));
  auto circuit = std::make_shared<const Circuit>(b.Build());
  serve::GcPool pool(/*depth=*/2, /*max_keys=*/4);
  Rng rng(47);
  const std::vector<int> key = {7};
  pool.RegisterKey(key, circuit);
  ASSERT_TRUE(pool.RefillOne(rng));
  ASSERT_TRUE(pool.RefillOne(rng));

  const serve::GcPool::Snapshot snapshot = pool.snapshot();
  // A restored key serves TryTake before any circuit is re-attached (the
  // material is self-contained; the circuit is only needed to refill).
  serve::GcPool restored(/*depth=*/2, /*max_keys=*/4);
  restored.Restore(snapshot);
  serve::GcPool::Garbled taken;
  EXPECT_TRUE(restored.TryTake(key, &taken));
  EXPECT_EQ(taken->input_labels.size(),
            circuit->garbler_inputs() + circuit->evaluator_inputs());
  // Re-attaching a circuit of a different shape (snapshot/model mismatch)
  // must drop the stale material rather than hand out unusable labels.
  serve::GcPool mismatched(/*depth=*/2, /*max_keys=*/4);
  mismatched.Restore(snapshot);
  CircuitBuilder b2(2, 2);
  b2.AddOutputWord(b2.XorW(b2.GarblerWord(0, 2), b2.EvaluatorWord(0, 2)));
  auto other = std::make_shared<const Circuit>(b2.Build());
  mismatched.RegisterKey(key, other);
  EXPECT_FALSE(mismatched.TryTake(key, &taken));
  EXPECT_EQ(mismatched.Deficit(), 2u);  // And it refills for the new shape.
}

TEST(SessionPrecomputeTest, SnapshotIsIsolatedFromTheLiveSession) {
  // A resume snapshot shares the session's garbled circuits and pad
  // segments. Whatever the live session takes, refills or garbles after
  // it, restoring the snapshot hands out exactly what the pools held when
  // it was taken: the same GarbledCircuit objects and byte-identical pads.
  CircuitBuilder b(4, 4);
  b.AddOutputWord(b.AddW(b.GarblerWord(0, 4), b.EvaluatorWord(0, 4)));
  auto circuit = std::make_shared<const Circuit>(b.Build());
  const std::vector<int> key = {3};
  // Distinct synthetic pads: batch `tag`, item j.
  auto sender_pads = [](uint64_t tag, size_t n) {
    OtSenderPadPool::PadPairs pads(n);
    for (size_t j = 0; j < n; ++j) {
      pads[j] = {Block(tag, 2 * j), Block(tag, 2 * j + 1)};
    }
    return pads;
  };
  auto receiver_pads = [](uint64_t tag, size_t n) {
    RandomOtBatch batch{BitVec(n), std::vector<Block>(n)};
    for (size_t j = 0; j < n; ++j) {
      batch.choices.Set(j, (tag + j) % 3 == 0);
      batch.pads[j] = Block(tag, j);
    }
    return batch;
  };

  serve::SessionPrecompute live(/*gc_depth=*/2, /*ot_pads=*/64,
                                /*seed=*/53);
  live.gc_pool()->RegisterKey(key, circuit);
  while (live.RefillStep(nullptr) > 0) {
  }
  OtReceiverPadPool rlive(64);
  for (uint64_t tag : {1, 2}) {
    live.ot_pads()->Append(sender_pads(tag, 24));
    rlive.Append(receiver_pads(tag, 24));
  }
  // Spend part of the first segment, so the snapshot starts mid-segment.
  OtSenderPadPool::PadPairs spent;
  BitVec spent_choices;
  std::vector<Block> spent_pads;
  uint64_t seq = 0;
  ASSERT_TRUE(live.ot_pads()->TryTake(10, &spent, &seq));
  ASSERT_TRUE(rlive.TryTake(10, &spent_choices, &spent_pads, &seq));

  const serve::SessionPrecompute::Snapshot snapshot = live.snapshot();
  const OtReceiverPadPool::State rsnapshot = rlive.snapshot();
  std::vector<const GarbledCircuit*> circuits;
  for (const serve::GcPool::Garbled& gc : snapshot.gc.at(key)) {
    circuits.push_back(gc.get());
  }
  ASSERT_EQ(circuits.size(), 2u);
  OtSenderPadPool::PadPairs expected = sender_pads(1, 24);
  expected.erase(expected.begin(), expected.begin() + 10);
  OtSenderPadPool::PadPairs second = sender_pads(2, 24);
  expected.insert(expected.end(), second.begin(), second.end());
  RandomOtBatch rfirst = receiver_pads(1, 24);
  RandomOtBatch rsecond = receiver_pads(2, 24);

  // The live session runs on: queries take circuits and pads, the
  // lockstep refill appends new segments, and filler passes re-garble.
  for (uint64_t tag = 3; tag < 6; ++tag) {
    serve::GcPool::Garbled taken;
    EXPECT_TRUE(live.gc_pool()->TryTake(key, &taken));
    EXPECT_EQ(live.RefillStep(nullptr), 1u);
    ASSERT_TRUE(live.ot_pads()->TryTake(20, &spent, &seq));
    ASSERT_TRUE(rlive.TryTake(20, &spent_choices, &spent_pads, &seq));
    live.ot_pads()->Append(sender_pads(tag, 20));
    rlive.Append(receiver_pads(tag, 20));
  }

  serve::SessionPrecompute restored(/*gc_depth=*/2, /*ot_pads=*/64,
                                    /*seed=*/59);
  restored.Restore(snapshot);
  for (const GarbledCircuit* expected_gc : circuits) {
    serve::GcPool::Garbled taken;
    ASSERT_TRUE(restored.gc_pool()->TryTake(key, &taken));
    EXPECT_EQ(taken.get(), expected_gc);
  }
  serve::GcPool::Garbled extra;
  EXPECT_FALSE(restored.gc_pool()->TryTake(key, &extra));

  OtSenderPadPool::PadPairs pads;
  ASSERT_TRUE(restored.ot_pads()->TryTake(38, &pads, &seq));
  EXPECT_EQ(seq, 10u);
  ASSERT_EQ(pads.size(), expected.size());
  for (size_t j = 0; j < pads.size(); ++j) {
    EXPECT_EQ(pads[j][0], expected[j][0]) << j;
    EXPECT_EQ(pads[j][1], expected[j][1]) << j;
  }
  EXPECT_EQ(restored.ot_pads()->depth(), 0u);

  OtReceiverPadPool rrestored(64);
  rrestored.Restore(rsnapshot);
  BitVec choices;
  std::vector<Block> rpads;
  ASSERT_TRUE(rrestored.TryTake(38, &choices, &rpads, &seq));
  EXPECT_EQ(seq, 10u);
  for (size_t j = 0; j < 38; ++j) {
    const RandomOtBatch& batch = j < 14 ? rfirst : rsecond;
    const size_t i = j < 14 ? j + 10 : j - 14;
    EXPECT_EQ(choices.Get(j), batch.choices.Get(i)) << j;
    EXPECT_EQ(rpads[j], batch.pads[i]) << j;
  }
  EXPECT_EQ(rrestored.depth(), 0u);
}

}  // namespace
}  // namespace pafs
