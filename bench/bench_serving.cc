// Serving-layer load harness behind scripts/bench_serving.sh: one
// ClassificationServer on loopback, N concurrent client sessions each
// issuing M secure queries, for TCP and UDS transports. Reports QPS and
// exact p50/p95/p99 latency (nearest-rank over every per-query sample) as
// a flat JSON object merged into BENCH_serving.json by the wrapper.
//
//   bench_serving [--clients=64] [--queries=4] [--transport=tcp|uds|both]
//                 [--classifier=nb|tree|linear|forest] [--smoke]
//                 [--overload] [--batch] [--batch-records=16]
//
// --smoke shrinks the run (4 clients x 2 queries, TCP only) and exits
// nonzero on any protocol failure or answer mismatch, so tier-1 ctest and
// CI exercise the full server/client stack in a few seconds.
//
// --overload adds the resilience scenario: a deliberately undersized
// server (2 workers, small admission bound, 1s idle reaper) under 4x
// oversubscribed fault-injecting clients, killed and restarted mid-storm,
// plus slow-loris sockets for the reaper. RetryPolicy must absorb all of
// it with zero client-visible failures; shed/reconnect/reap counts land
// in the JSON.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "net/error.h"
#include "net/framing.h"
#include "net/socket.h"
#include "serve/client.h"
#include "serve/model.h"
#include "serve/server.h"
#include "util/timer.h"

namespace pafs {
namespace {

struct ServingOptions {
  int clients = 64;
  int queries = 4;
  bool tcp = true;
  bool uds = true;
  bool smoke = false;
  bool overload = false;
  bool batch = false;
  int batch_records = 16;  // Records per ClassifyBatch in the --batch run.
  ClassifierKind classifier = ClassifierKind::kNaiveBayes;
};

struct TransportResult {
  std::string transport;
  int sessions = 0;
  uint64_t queries = 0;
  uint64_t failures = 0;   // Transport/protocol faults seen by clients.
  uint64_t mismatches = 0; // Secure answer != plaintext answer.
  double wall_seconds = 0;
  double qps = 0;
  double mean_ms = 0;
  double p50_ms = 0;
  double p95_ms = 0;
  double p99_ms = 0;
  // Session opens (the client constructor: hello, setup, the base OTs,
  // ticket), timed apart from the queries they precede.
  double open_p50_ms = 0;
  double open_p95_ms = 0;
};

double PercentileMs(const std::vector<double>& sorted_seconds, double q) {
  if (sorted_seconds.empty()) return 0;
  size_t n = sorted_seconds.size();
  size_t rank = static_cast<size_t>(q * static_cast<double>(n));
  if (rank > 0) --rank;  // Nearest-rank: ceil(q*n)-th sample, 1-indexed.
  return sorted_seconds[std::min(rank, n - 1)] * 1e3;
}

TransportResult RunLoad(const SecureClassificationPipeline& pipeline,
                        const Dataset& data, const SocketAddress& bind,
                        const ServingOptions& opt) {
  serve::ServerConfig server_config;
  server_config.address = bind;
  server_config.max_sessions = opt.clients + 8;
  // Load-test deadlines: with many more sessions than cores, a query can
  // legitimately queue for minutes behind the worker pool. The deadline
  // exists to catch wedged peers, not to bound queueing.
  server_config.recv_timeout_seconds = 600;
  serve::ClassificationServer server(
      serve::ServingModel::FromPipeline(pipeline), server_config);
  server.Start();

  // Precompute expected answers so the hot loop only runs the protocol.
  std::vector<std::vector<int>> rows;
  std::vector<int> expected;
  for (int i = 0; i < 32; ++i) {
    rows.push_back(data.row((i * 131) % data.size()));
    expected.push_back(pipeline.PlaintextPredict(rows.back()));
  }

  std::vector<std::vector<double>> latencies(opt.clients);
  std::vector<double> opens(opt.clients);
  std::atomic<uint64_t> failures{0};
  std::atomic<uint64_t> mismatches{0};
  std::vector<std::thread> workers;
  Timer wall;
  for (int t = 0; t < opt.clients; ++t) {
    workers.emplace_back([&, t] {
      try {
        serve::ClientConfig cc;
        cc.address = server.address();
        cc.recv_timeout_seconds = 600;
        cc.seed = 0xBE7C4 + t;
        Timer open;
        serve::ClassificationClient client(cc);
        opens[t] = open.ElapsedSeconds();
        latencies[t].reserve(opt.queries);
        for (int q = 0; q < opt.queries; ++q) {
          size_t idx = (t * 7 + q) % rows.size();
          Timer timer;
          int got = client.Classify(rows[idx]);
          latencies[t].push_back(timer.ElapsedSeconds());
          if (got != expected[idx]) ++mismatches;
        }
        client.Close();
      } catch (const TransportError& e) {
        ++failures;
        std::fprintf(stderr, "client %d failed: %s\n", t, e.what());
      }
    });
  }
  for (auto& w : workers) w.join();

  TransportResult r;
  r.transport =
      bind.family == SocketAddress::Family::kTcp ? "tcp" : "uds";
  r.sessions = opt.clients;
  r.wall_seconds = wall.ElapsedSeconds();
  r.failures = failures.load();
  r.mismatches = mismatches.load();
  std::vector<double> all;
  for (const auto& per_client : latencies) {
    all.insert(all.end(), per_client.begin(), per_client.end());
  }
  r.queries = all.size();
  std::sort(all.begin(), all.end());
  if (!all.empty()) {
    double sum = 0;
    for (double s : all) sum += s;
    r.mean_ms = sum / static_cast<double>(all.size()) * 1e3;
    r.p50_ms = PercentileMs(all, 0.50);
    r.p95_ms = PercentileMs(all, 0.95);
    r.p99_ms = PercentileMs(all, 0.99);
    r.qps = static_cast<double>(all.size()) / r.wall_seconds;
  }
  std::sort(opens.begin(), opens.end());
  r.open_p50_ms = PercentileMs(opens, 0.50);
  r.open_p95_ms = PercentileMs(opens, 0.95);

  server.Stop();
  serve::ServerStats stats = server.stats();
  if (stats.sessions_failed > 0) {
    // Server-side session faults count as failures even if every client
    // retried its way to an answer.
    r.failures += stats.sessions_failed;
  }
  return r;
}

struct BatchLoadResult {
  int sessions = 0;
  int records_per_batch = 0;
  uint64_t batches = 0;         // ClassifyBatch calls completed by clients.
  uint64_t records = 0;         // Classifications delivered.
  uint64_t failures = 0;
  uint64_t mismatches = 0;
  uint64_t batches_served = 0;  // Server-side wire batches (incl. chunks).
  uint64_t batch_records = 0;   // Server-side per-record admissions.
  double wall_seconds = 0;
  double qps = 0;               // Records per second — comparable to the
                                // per-query transports' qps directly.
  double per_record_ms = 0;     // Mean client-side batch wall / records.
};

// The cross-query batching scenario: the same concurrent-session shape as
// RunLoad, but every client submits its rows through ClassifyBatch so the
// whole batch shares one wire round, one OT-extension matrix, and circuits
// drawn from the server's GC pool. QPS here counts records, making the
// figure directly comparable to the per-query transports' qps.
BatchLoadResult RunBatchLoad(const SecureClassificationPipeline& pipeline,
                             const Dataset& data, const ServingOptions& opt) {
  serve::ServerConfig server_config;
  server_config.address = SocketAddress::Tcp("127.0.0.1", 0);
  server_config.max_sessions = opt.clients + 8;
  server_config.recv_timeout_seconds = 600;
  serve::ClassificationServer server(
      serve::ServingModel::FromPipeline(pipeline), server_config);
  server.Start();

  std::vector<std::vector<int>> rows;
  std::vector<int> expected;
  for (int i = 0; i < 32; ++i) {
    rows.push_back(data.row((i * 131) % data.size()));
    expected.push_back(pipeline.PlaintextPredict(rows.back()));
  }

  std::vector<std::vector<double>> batch_seconds(opt.clients);
  std::atomic<uint64_t> batches{0};
  std::atomic<uint64_t> records{0};
  std::atomic<uint64_t> failures{0};
  std::atomic<uint64_t> mismatches{0};
  std::vector<std::thread> workers;
  Timer wall;
  for (int t = 0; t < opt.clients; ++t) {
    workers.emplace_back([&, t] {
      try {
        serve::ClientConfig cc;
        cc.address = server.address();
        cc.recv_timeout_seconds = 600;
        cc.seed = 0xBA7C4 + t;
        serve::ClassificationClient client(cc);
        for (int q = 0; q < opt.queries; ++q) {
          std::vector<std::vector<int>> batch(opt.batch_records);
          std::vector<size_t> idx(opt.batch_records);
          for (int i = 0; i < opt.batch_records; ++i) {
            idx[i] = (t * 7 + q * opt.batch_records + i) % rows.size();
            batch[i] = rows[idx[i]];
          }
          Timer timer;
          std::vector<int> got = client.ClassifyBatch(batch);
          batch_seconds[t].push_back(timer.ElapsedSeconds());
          ++batches;
          records += got.size();
          for (int i = 0; i < opt.batch_records; ++i) {
            if (got[i] != expected[idx[i]]) ++mismatches;
          }
        }
        client.Close();
      } catch (const TransportError& e) {
        ++failures;
        std::fprintf(stderr, "batch client %d failed: %s\n", t, e.what());
      }
    });
  }
  for (auto& w : workers) w.join();

  BatchLoadResult r;
  r.sessions = opt.clients;
  r.records_per_batch = opt.batch_records;
  r.wall_seconds = wall.ElapsedSeconds();
  r.batches = batches.load();
  r.records = records.load();
  r.failures = failures.load();
  r.mismatches = mismatches.load();
  double batch_sum = 0;
  for (const auto& per_client : batch_seconds) {
    for (double s : per_client) batch_sum += s;
  }
  if (r.records > 0) {
    r.qps = static_cast<double>(r.records) / r.wall_seconds;
    r.per_record_ms = batch_sum / static_cast<double>(r.records) * 1e3;
  }

  server.Stop();
  serve::ServerStats stats = server.stats();
  r.batches_served = stats.batches_served;
  r.batch_records = stats.batch_records;
  if (stats.sessions_failed > 0) r.failures += stats.sessions_failed;
  return r;
}

struct OverloadResult {
  int sessions = 0;
  uint64_t queries = 0;
  uint64_t failures = 0;    // Queries lost for good despite RetryPolicy.
  uint64_t mismatches = 0;  // Secure answer != plaintext answer.
  uint64_t reconnects = 0;  // Client re-handshakes (restart + faults).
  uint64_t retries = 0;     // Client query attempts that were retried.
  uint64_t queries_shed = 0;     // Server admission-control sheds.
  uint64_t sessions_reaped = 0;  // Idle/loris sessions closed by reaper.
  uint64_t sessions_rejected = 0;
  uint64_t resumes = 0;          // Client reconnects that presented a ticket.
  uint64_t resumptions = 0;      // Server-side ticket hits.
  uint64_t resume_misses = 0;    // Tickets lost to the mid-storm restart.
  uint64_t replay_hits = 0;      // Retries answered from the replay cache.
  double wall_seconds = 0;
  double qps = 0;
};

OverloadResult RunOverload(const SecureClassificationPipeline& pipeline,
                           const Dataset& data, const ServingOptions& opt) {
  serve::ServerConfig sc;
  // UDS so the mid-storm restart reappears at the same address.
  sc.address = SocketAddress::Unix("/tmp/pafs_bench_overload_" +
                                   std::to_string(::getpid()) + ".sock");
  sc.num_threads = 2;  // Deliberately undersized: the storm must queue.
  sc.max_sessions = 64;
  sc.max_pending_queries = 4;  // Small bound: the storm must shed.
  sc.recv_timeout_seconds = 10;
  sc.drain_timeout_seconds = 0.2;
  sc.idle_timeout_seconds = 1.0;  // Loris sockets die within ~1.25s.
  serve::ServingModel model = serve::ServingModel::FromPipeline(pipeline);
  auto server = std::make_unique<serve::ClassificationServer>(model, sc);
  server->Start();

  std::vector<std::vector<int>> rows;
  std::vector<int> expected;
  for (int i = 0; i < 32; ++i) {
    rows.push_back(data.row((i * 131) % data.size()));
    expected.push_back(pipeline.PlaintextPredict(rows.back()));
  }

  const int kClients = 4 * sc.num_threads;  // 4x oversubscription.
  const int kQueriesEach = opt.smoke ? 2 : 4;
  const FaultKind kKinds[] = {FaultKind::kDrop, FaultKind::kCorrupt,
                              FaultKind::kDisconnect, FaultKind::kNone};
  std::atomic<uint64_t> failures{0};
  std::atomic<uint64_t> mismatches{0};
  std::atomic<uint64_t> queries{0};
  std::atomic<uint64_t> reconnects{0};
  std::atomic<uint64_t> retries{0};
  std::atomic<uint64_t> resumes{0};
  std::vector<std::thread> workers;
  Timer wall;
  for (int t = 0; t < kClients; ++t) {
    workers.emplace_back([&, t] {
      try {
        serve::ClientConfig cc;
        cc.address = sc.address;
        cc.recv_timeout_seconds = 60;
        cc.seed = 0x0E41 + t;
        // Under overload the deadline is the real budget: instant kBusy
        // sheds burn attempts far faster than faults do.
        cc.retry.max_attempts = 64;
        cc.retry.initial_backoff_seconds = 0.02;
        cc.retry.max_backoff_seconds = 0.5;
        cc.retry.deadline_seconds = 120;
        cc.fault_plan.kind = kKinds[t % 4];
        cc.fault_plan.seed = 900 + t;
        // Past the handshake's base-OT sends (A, then two blocks each).
        cc.fault_plan.first_op = 2 + 2 * kOtExtensionWidth + 15 +
                                 3 * static_cast<uint64_t>(t);
        cc.fault_plan.max_faults = 2;
        serve::ClassificationClient client(cc);
        for (int q = 0; q < kQueriesEach; ++q) {
          size_t idx = (t * 7 + q) % rows.size();
          if (client.Classify(rows[idx]) != expected[idx]) ++mismatches;
          ++queries;
        }
        reconnects += client.reconnects();
        retries += client.retries();
        resumes += client.resumes();
        client.Close();
      } catch (const TransportError& e) {
        ++failures;
        std::fprintf(stderr, "overload client %d failed: %s\n", t, e.what());
      }
    });
  }

  // Kill and resurrect the server mid-storm; every in-flight query must
  // come back through reconnect + retry.
  std::this_thread::sleep_for(std::chrono::milliseconds(800));
  server->Stop();
  serve::ServerStats first = server->stats();
  server = std::make_unique<serve::ClassificationServer>(model, sc);
  server->Start();

  // Slow-loris sockets against the restarted server: connect, say
  // nothing, and wait to be reaped.
  std::vector<std::unique_ptr<SocketChannel>> loris;
  for (int i = 0; i < 3; ++i) {
    loris.push_back(SocketConnect(sc.address, 5.0));
  }

  for (auto& w : workers) w.join();
  double storm_seconds = wall.ElapsedSeconds();

  // Give the reaper its window (idle timeout + tick slack).
  Timer reap_wait;
  while (server->stats().sessions_reaped < loris.size() &&
         reap_wait.ElapsedSeconds() < 8 * sc.idle_timeout_seconds) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  server->Stop();
  serve::ServerStats second = server->stats();

  OverloadResult r;
  r.sessions = kClients;
  r.queries = queries.load();
  r.failures = failures.load();
  r.mismatches = mismatches.load();
  r.reconnects = reconnects.load();
  r.retries = retries.load();
  r.queries_shed = first.queries_shed + second.queries_shed;
  r.sessions_reaped = first.sessions_reaped + second.sessions_reaped;
  r.sessions_rejected = first.sessions_rejected + second.sessions_rejected;
  r.resumes = resumes.load();
  r.resumptions = first.resumptions + second.resumptions;
  r.resume_misses = first.resume_misses + second.resume_misses;
  r.replay_hits = first.replay_hits + second.replay_hits;
  r.wall_seconds = storm_seconds;
  r.qps = storm_seconds > 0
              ? static_cast<double>(r.queries) / storm_seconds
              : 0;
  return r;
}

struct ResumeResult {
  double full_ms = 0;     // Mean reconnect+query with a full re-handshake.
  double resumed_ms = 0;  // Mean reconnect+query via resumption ticket.
  double speedup = 0;     // full_ms / resumed_ms.
  uint64_t resumptions = 0;
  uint64_t resume_misses = 0;
  uint64_t queries_cancelled = 0;
};

// Times reconnect-and-query with and without resumption tickets against
// the same server, then probes the query watchdog with a wedged session.
// The resumed path restores the session's OT extension state and skips
// the base OTs entirely, which dominate a cold re-handshake.
ResumeResult RunResumeBench(const SecureClassificationPipeline& pipeline,
                            const Dataset& data) {
  serve::ServerConfig sc;
  sc.recv_timeout_seconds = 60;
  serve::ClassificationServer server(
      serve::ServingModel::FromPipeline(pipeline), sc);
  server.Start();
  const std::vector<int>& row = data.row(33);
  constexpr int kReconnects = 3;

  auto time_reconnects = [&](bool resume) {
    serve::ClientConfig cc;
    cc.address = server.address();
    cc.recv_timeout_seconds = 60;
    cc.enable_resume = resume;
    cc.seed = resume ? 0xA11CE : 0xB0B;
    serve::ClassificationClient client(cc);
    client.Classify(row);  // Warm up: lazy per-session state.
    double total = 0;
    for (int i = 0; i < kReconnects; ++i) {
      client.DropConnection();
      Timer timer;
      client.Classify(row);
      total += timer.ElapsedSeconds();
    }
    client.Close();
    return total / kReconnects * 1e3;
  };
  ResumeResult r;
  r.full_ms = time_reconnects(false);
  r.resumed_ms = time_reconnects(true);
  r.speedup = r.resumed_ms > 0 ? r.full_ms / r.resumed_ms : 0;

  server.Stop();
  serve::ServerStats timing_stats = server.stats();
  r.resumptions = timing_stats.resumptions;
  r.resume_misses = timing_stats.resume_misses;

  // Cancellation probe, on its own server: its sessions never run a
  // legitimate query, so the per-query budget can be far below real query
  // latency without the watchdog cancelling honest work.
  serve::ServerConfig wc;
  wc.recv_timeout_seconds = 60;
  wc.query_budget_seconds = 0.5;
  serve::ClassificationServer wedge_server(
      serve::ServingModel::FromPipeline(pipeline), wc);
  wedge_server.Start();
  try {
    auto socket = SocketConnect(wedge_server.address(), 5.0);
    socket->set_recv_timeout_seconds(30);
    FramedChannel framed(*socket);
    serve::SendClientHello(framed, serve::ClientHello{});
    if (framed.RecvU64() != static_cast<uint64_t>(serve::ReplyStatus::kOk)) {
      throw ProtocolError("resume bench: wedge handshake rejected");
    }
    serve::RecvSessionSetup(framed);
    OtExtReceiver ot;
    Rng rng(0x3ED6E);
    ot.Setup(framed, rng);
    serve::RecvTicketFrame(framed);
    framed.SendU64(static_cast<uint64_t>(serve::RequestTag::kQuery));
    framed.SendU64(1);
    uint64_t status = framed.RecvU64();
    if (status != static_cast<uint64_t>(serve::ReplyStatus::kCancelled)) {
      std::fprintf(stderr,
                   "resume bench: wedged query ended %llu, not kCancelled\n",
                   static_cast<unsigned long long>(status));
    }
  } catch (const TransportError& e) {
    std::fprintf(stderr, "resume bench: cancellation probe: %s\n", e.what());
  }

  wedge_server.Stop();
  r.queries_cancelled = wedge_server.stats().queries_cancelled;
  return r;
}

void PrintResume(const ResumeResult& r) {
  std::printf("  \"resume\": {\n");
  std::printf("    \"full_reconnect_ms\": %.3f,\n", r.full_ms);
  std::printf("    \"resumed_reconnect_ms\": %.3f,\n", r.resumed_ms);
  std::printf("    \"speedup\": %.2f,\n", r.speedup);
  std::printf("    \"resumptions\": %llu,\n",
              static_cast<unsigned long long>(r.resumptions));
  std::printf("    \"resume_misses\": %llu,\n",
              static_cast<unsigned long long>(r.resume_misses));
  std::printf("    \"queries_cancelled\": %llu\n",
              static_cast<unsigned long long>(r.queries_cancelled));
  std::printf("  }\n");
}

void PrintBatch(const BatchLoadResult& r, bool last) {
  std::printf("  \"batched\": {\n");
  std::printf("    \"sessions\": %d,\n", r.sessions);
  std::printf("    \"records_per_batch\": %d,\n", r.records_per_batch);
  std::printf("    \"batches\": %llu,\n",
              static_cast<unsigned long long>(r.batches));
  std::printf("    \"records\": %llu,\n",
              static_cast<unsigned long long>(r.records));
  std::printf("    \"failures\": %llu,\n",
              static_cast<unsigned long long>(r.failures));
  std::printf("    \"mismatches\": %llu,\n",
              static_cast<unsigned long long>(r.mismatches));
  std::printf("    \"batches_served\": %llu,\n",
              static_cast<unsigned long long>(r.batches_served));
  std::printf("    \"batch_records\": %llu,\n",
              static_cast<unsigned long long>(r.batch_records));
  std::printf("    \"wall_seconds\": %.3f,\n", r.wall_seconds);
  std::printf("    \"qps\": %.2f,\n", r.qps);
  std::printf("    \"per_record_ms\": %.3f\n", r.per_record_ms);
  std::printf("  }%s\n", last ? "" : ",");
}

void PrintOverload(const OverloadResult& r) {
  std::printf("  \"overload\": {\n");
  std::printf("    \"sessions\": %d,\n", r.sessions);
  std::printf("    \"queries\": %llu,\n",
              static_cast<unsigned long long>(r.queries));
  std::printf("    \"failures\": %llu,\n",
              static_cast<unsigned long long>(r.failures));
  std::printf("    \"mismatches\": %llu,\n",
              static_cast<unsigned long long>(r.mismatches));
  std::printf("    \"reconnects\": %llu,\n",
              static_cast<unsigned long long>(r.reconnects));
  std::printf("    \"retries\": %llu,\n",
              static_cast<unsigned long long>(r.retries));
  std::printf("    \"queries_shed\": %llu,\n",
              static_cast<unsigned long long>(r.queries_shed));
  std::printf("    \"sessions_reaped\": %llu,\n",
              static_cast<unsigned long long>(r.sessions_reaped));
  std::printf("    \"sessions_rejected\": %llu,\n",
              static_cast<unsigned long long>(r.sessions_rejected));
  std::printf("    \"resumes\": %llu,\n",
              static_cast<unsigned long long>(r.resumes));
  std::printf("    \"resumptions\": %llu,\n",
              static_cast<unsigned long long>(r.resumptions));
  std::printf("    \"resume_misses\": %llu,\n",
              static_cast<unsigned long long>(r.resume_misses));
  std::printf("    \"replay_hits\": %llu,\n",
              static_cast<unsigned long long>(r.replay_hits));
  std::printf("    \"wall_seconds\": %.3f,\n", r.wall_seconds);
  std::printf("    \"qps\": %.2f\n", r.qps);
  std::printf("  },\n");
}

void PrintResult(const TransportResult& r, bool last) {
  std::printf("    \"%s\": {\n", r.transport.c_str());
  std::printf("      \"sessions\": %d,\n", r.sessions);
  std::printf("      \"queries\": %llu,\n",
              static_cast<unsigned long long>(r.queries));
  std::printf("      \"failures\": %llu,\n",
              static_cast<unsigned long long>(r.failures));
  std::printf("      \"mismatches\": %llu,\n",
              static_cast<unsigned long long>(r.mismatches));
  std::printf("      \"wall_seconds\": %.3f,\n", r.wall_seconds);
  std::printf("      \"qps\": %.2f,\n", r.qps);
  std::printf("      \"mean_ms\": %.3f,\n", r.mean_ms);
  std::printf("      \"p50_ms\": %.3f,\n", r.p50_ms);
  std::printf("      \"p95_ms\": %.3f,\n", r.p95_ms);
  std::printf("      \"p99_ms\": %.3f,\n", r.p99_ms);
  std::printf("      \"open_p50_ms\": %.3f,\n", r.open_p50_ms);
  std::printf("      \"open_p95_ms\": %.3f\n", r.open_p95_ms);
  std::printf("    }%s\n", last ? "" : ",");
}

int Main(int argc, char** argv) {
  ServingOptions opt;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--clients=", 10) == 0) {
      opt.clients = std::atoi(arg + 10);
    } else if (std::strncmp(arg, "--queries=", 10) == 0) {
      opt.queries = std::atoi(arg + 10);
    } else if (std::strncmp(arg, "--transport=", 12) == 0) {
      opt.tcp = std::strcmp(arg + 12, "uds") != 0;
      opt.uds = std::strcmp(arg + 12, "tcp") != 0;
    } else if (std::strcmp(arg, "--overload") == 0) {
      opt.overload = true;
    } else if (std::strcmp(arg, "--batch") == 0) {
      opt.batch = true;
    } else if (std::strncmp(arg, "--batch-records=", 16) == 0) {
      opt.batch_records = std::atoi(arg + 16);
    } else if (std::strcmp(arg, "--smoke") == 0) {
      opt.smoke = true;
      opt.clients = 4;
      opt.queries = 2;
      opt.uds = false;
      opt.batch = true;  // Smoke covers the batched wire path too.
      opt.batch_records = 4;
    } else if (std::strncmp(arg, "--classifier=", 13) == 0) {
      const char* name = arg + 13;
      if (std::strcmp(name, "nb") == 0) {
        opt.classifier = ClassifierKind::kNaiveBayes;
      } else if (std::strcmp(name, "tree") == 0) {
        opt.classifier = ClassifierKind::kDecisionTree;
      } else if (std::strcmp(name, "linear") == 0) {
        opt.classifier = ClassifierKind::kLinear;
      } else if (std::strcmp(name, "forest") == 0) {
        opt.classifier = ClassifierKind::kForest;
      } else {
        std::fprintf(stderr, "unknown --classifier=%s\n", name);
        return 2;
      }
    }
  }
  bench::BenchArgs(argc, argv);

  Dataset data = bench::WarfarinCohort(opt.smoke ? 800 : 2000);
  PipelineConfig config;
  config.classifier = opt.classifier;
  config.risk_budget = 0.08;
  config.paillier_bits = 256;
  SecureClassificationPipeline pipeline(data, config);

  std::vector<TransportResult> results;
  if (opt.tcp) {
    results.push_back(
        RunLoad(pipeline, data, SocketAddress::Tcp("127.0.0.1", 0), opt));
  }
  if (opt.uds) {
    std::string path = "/tmp/pafs_bench_serving_" +
                       std::to_string(::getpid()) + ".sock";
    results.push_back(RunLoad(pipeline, data, SocketAddress::Unix(path), opt));
  }

  std::printf("{\n");
  std::printf("  \"classifier\": \"%s\",\n", ClassifierName(opt.classifier));
  std::printf("  \"clients\": %d,\n", opt.clients);
  std::printf("  \"queries_per_client\": %d,\n", opt.queries);
  std::printf("  \"hardware_threads\": %u,\n",
              std::thread::hardware_concurrency());
  BatchLoadResult batch;
  OverloadResult overload;
  ResumeResult resume;
  if (opt.batch) {
    batch = RunBatchLoad(pipeline, data, opt);
  }
  if (opt.overload) {
    overload = RunOverload(pipeline, data, opt);
    resume = RunResumeBench(pipeline, data);
  }

  std::printf("  \"transports\": {\n");
  for (size_t i = 0; i < results.size(); ++i) {
    PrintResult(results[i], i + 1 == results.size());
  }
  std::printf("  }%s\n", (opt.batch || opt.overload) ? "," : "");
  if (opt.batch) PrintBatch(batch, /*last=*/!opt.overload);
  if (opt.overload) {
    PrintOverload(overload);
    PrintResume(resume);
  }
  std::printf("}\n");
  bench::PrintTelemetryBreakdown();

  if (opt.batch) {
    uint64_t want = static_cast<uint64_t>(opt.clients) *
                    static_cast<uint64_t>(opt.queries) *
                    static_cast<uint64_t>(opt.batch_records);
    if (batch.failures > 0 || batch.mismatches > 0 || batch.records != want) {
      std::fprintf(stderr,
                   "bench_serving: batch saw %llu failures, %llu mismatches, "
                   "%llu of %llu records\n",
                   static_cast<unsigned long long>(batch.failures),
                   static_cast<unsigned long long>(batch.mismatches),
                   static_cast<unsigned long long>(batch.records),
                   static_cast<unsigned long long>(want));
      return 1;
    }
  }
  if (opt.overload && (overload.failures > 0 || overload.mismatches > 0)) {
    std::fprintf(stderr,
                 "bench_serving: overload saw %llu failures, %llu "
                 "mismatches\n",
                 static_cast<unsigned long long>(overload.failures),
                 static_cast<unsigned long long>(overload.mismatches));
    return 1;
  }
  if (opt.overload &&
      (resume.resumptions < 3 || resume.queries_cancelled < 1)) {
    std::fprintf(stderr,
                 "bench_serving: resume bench engaged %llu resumptions, "
                 "%llu cancellations\n",
                 static_cast<unsigned long long>(resume.resumptions),
                 static_cast<unsigned long long>(resume.queries_cancelled));
    return 1;
  }
  for (const TransportResult& r : results) {
    if (r.failures > 0 || r.mismatches > 0) {
      std::fprintf(stderr,
                   "bench_serving: %llu failures, %llu mismatches on %s\n",
                   static_cast<unsigned long long>(r.failures),
                   static_cast<unsigned long long>(r.mismatches),
                   r.transport.c_str());
      return 1;
    }
    uint64_t want = static_cast<uint64_t>(opt.clients) *
                    static_cast<uint64_t>(opt.queries);
    if (r.queries != want) {
      std::fprintf(stderr, "bench_serving: served %llu of %llu queries\n",
                   static_cast<unsigned long long>(r.queries),
                   static_cast<unsigned long long>(want));
      return 1;
    }
  }
  return 0;
}

}  // namespace
}  // namespace pafs

int main(int argc, char** argv) { return pafs::Main(argc, argv); }
