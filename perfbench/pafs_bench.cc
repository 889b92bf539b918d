// PAFS serving benchmark. Runs one ClassificationServer (default config,
// workers = hardware threads) on loopback TCP and drives it with
// ClassificationClient sessions, the public API pafs_server and pafs_client
// use, measuring what a patient's client waits for.
//
//   pafs_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--trace-dir DIR]
//
// Workloads: warfarin cohort (GenerateWarfarinCohort, fixed cohort seed so
// the model and plan never depend on the workload seed), risk budget 0.08,
// PipelineConfig defaults otherwise (512-bit Paillier). Each draws its rows
// uniformly from the whole cohort with the workload seed. Every session has
// one request in flight, so each workload is a closed loop of 2 sessions:
//   churn_forest  each loop opens a fresh client, classifies one row, and
//                 closes it: hello, base OTs and a cold first query.
//   mixed_forest  one interactive session calling Classify back to back
//                 beside one batch session calling ClassifyBatch(32 rows);
//                 both are opened and warmed before timing.
//   warm_linear   two warm linear-model sessions calling Classify.
//
// Every answer is checked against SecureClassificationPipeline::
// PlaintextPredict. A wrong answer, a failed operation, a shed query or a
// failed session makes the run report correct=false and exit 1, so a
// degraded run is never compared as a valid one. --trace 0 reports the
// end-to-end metrics with telemetry off.
// --trace 1 runs the timed window twice, untraced then traced (this file's
// spans around every public call, PafsTelemetry on so the obs counters and
// histograms can be read), then runs isolated layer probes outside the
// timed window, and reports the per-layer metrics. The last stdout line is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <latch>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bignum/bigint.h"
#include "bignum/modmath.h"
#include "core/pipeline.h"
#include "core/selection.h"
#include "crypto/cpu_features.h"
#include "crypto/paillier.h"
#include "crypto/paillier_pool.h"
#include "crypto/prg.h"
#include "data/warfarin_gen.h"
#include "gc/garble.h"
#include "ml/decision_tree.h"
#include "ml/linear_model.h"
#include "ml/naive_bayes.h"
#include "ml/random_forest.h"
#include "net/channel.h"
#include "net/error.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "ot/iknp.h"
#include "percentile.h"
#include "serve/client.h"
#include "serve/model.h"
#include "serve/server.h"
#include "smc/secure_forest.h"
#include "smc/secure_linear.h"
#include "spans.h"
#include "util/parallel.h"
#include "util/random.h"
#include "util/timer.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace pafs::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr size_t kCohortRows = 2000;
constexpr uint64_t kCohortSeed = 2016;
constexpr double kRiskBudget = 0.08;
// setup_s is the median of at least kMinSetupReps set-ups; set-ups repeat
// until the budget is spent, so the median spans several seconds of the
// host's speed rather than one moment of it.
constexpr int kMinSetupReps = 3;
constexpr int kMaxSetupReps = 200;
constexpr double kSetupBudgetSeconds = 5.0;
// Set-up is single-threaded compute, and on a shared host one thread's speed
// shifts for minutes at a time. On a 4-vCPU VM, medians of 100 consecutive
// linear set-ups ranged from 20 to 32 ms and medians of 5 forest set-ups
// from 0.78 to 1.29 s; divided by ReferenceMs() taken beside them, the same
// medians stayed within 1% and 13% of their middle value. Each set-up is
// therefore timed between two runs of the reference, and setup_s rescales
// its wall time to a host on which the reference takes kReferenceNominalMs:
// a slower host phase leaves setup_s in place, while work added to set-up
// still raises it.
constexpr int kReferenceLimbRounds = 1 << 17;
constexpr int kReferenceMapRounds = 6;
constexpr int kReferenceKeys = 4000;
constexpr double kReferenceNominalMs = 17.0;
constexpr int kSessions = 2;        // Client threads = sessions, all shapes.
constexpr int kBatchRecords = 32;   // Rows per ClassifyBatch call.
constexpr int kWarmQueries = 8;     // Untimed queries per warm session.
constexpr int kOtPoolDepth = 4096;  // Client and server default pool depth.
// The server keeps a resumption snapshot (OT state, transcript, GC and OT
// pools) of every closed session, so on churn_forest the process grows with
// sessions opened. Its peak_rss_mb is read once this many sessions have been
// opened in the window, which keeps it independent of throughput.
constexpr uint64_t kChurnRssSessions = 64;

enum class Shape { kChurn, kMixed, kWarm };

struct Workload {
  const char* name;
  ClassifierKind kind;
  Shape shape;
  // Percentile behind latency_tail_ms: the highest of p90, p95 and p99
  // that keeps at least ten samples beyond it in a 25 s window, lowered
  // where a lower one spread less from run to run in trial runs
  // (layers.json gives the counts and spreads).
  double tail_q;
  const char* op;   // What one latency sample times.
};

constexpr Workload kWorkloads[] = {
    {"churn_forest", ClassifierKind::kForest, Shape::kChurn, 0.90,
     "cold session, constructor start to first answer"},
    {"mixed_forest", ClassifierKind::kForest, Shape::kMixed, 0.95,
     "interactive Classify beside a ClassifyBatch(32) session"},
    {"warm_linear", ClassifierKind::kLinear, Shape::kWarm, 0.95,
     "warm Classify"},
};

struct Options {
  const Workload* workload = nullptr;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_dir;
};

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

// Peak resident set (VmHWM) since the last ResetPeakRss(), in MiB.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // Reported in kB.
    }
  }
  return 0;
}

// Restarts the peak at the current resident set, so that a window's peak
// does not depend on what the repeated set-ups left in the heap.
void ResetPeakRss() { std::ofstream("/proc/self/clear_refs") << "5"; }

// Host-speed reference for setup_s, compiled from this file so that no
// change under src/ moves it: an 8x8-limb multiply-accumulate chain (the
// arithmetic of Paillier key generation, most of the linear set-up), then
// std::map updates and lookups and a sort of pseudo-random keys (branchy,
// allocating code like the forest's greedy selection). Returns its wall
// time in milliseconds.
volatile uint64_t reference_sink = 1;

double ReferenceMs() {
  uint64_t x = reference_sink | 1;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  Timer timer;
  uint64_t a[8];
  uint64_t b[8];
  for (int i = 0; i < 8; ++i) {
    a[i] = next();
    b[i] = next();
  }
  for (int round = 0; round < kReferenceLimbRounds; ++round) {
    uint64_t r[16] = {};
    for (int i = 0; i < 8; ++i) {
      unsigned __int128 carry = 0;
      for (int j = 0; j < 8; ++j) {
        carry += static_cast<unsigned __int128>(a[i]) * b[j] + r[i + j];
        r[i + j] = static_cast<uint64_t>(carry);
        carry >>= 64;
      }
      r[i + 8] = static_cast<uint64_t>(carry);
    }
    for (int i = 0; i < 8; ++i) a[i] = r[i] ^ r[i + 8];
  }
  uint64_t acc = a[0];
  for (int round = 0; round < kReferenceMapRounds; ++round) {
    std::map<uint32_t, uint32_t> counts;
    std::vector<uint32_t> keys;
    for (int i = 0; i < kReferenceKeys; ++i) {
      counts[static_cast<uint32_t>(next() % 5000)] += static_cast<uint32_t>(i);
      keys.push_back(static_cast<uint32_t>(x >> 20));
    }
    std::sort(keys.begin(), keys.end());
    for (int i = 0; i < kReferenceKeys; ++i) {
      auto it = counts.find(static_cast<uint32_t>(next() % 5000));
      if (it != counts.end()) acc += it->second;
    }
    acc += keys[keys.size() / 2];
  }
  double ms = timer.ElapsedMillis();
  reference_sink = acc;
  return ms;
}

// ---------------------------------------------------------------------------
// Deployment: everything an operator pays before the first client connects.

struct Deployment {
  Dataset cohort;
  std::unique_ptr<SecureClassificationPipeline> pipeline;
  std::unique_ptr<serve::ClassificationServer> server;
};

// Cohort + train + select (the pipeline constructor) + ServingModel +
// Start(). Heap-allocated because the pipeline's selector keeps a pointer
// to the cohort.
std::unique_ptr<Deployment> Deploy(ClassifierKind kind) {
  Rng rng(kCohortSeed);
  auto d = std::make_unique<Deployment>(
      Deployment{GenerateWarfarinCohort(kCohortRows, rng), nullptr, nullptr});
  PipelineConfig config;
  config.classifier = kind;
  config.risk_budget = kRiskBudget;
  d->pipeline =
      std::make_unique<SecureClassificationPipeline>(d->cohort, config);
  d->server = std::make_unique<serve::ClassificationServer>(
      serve::ServingModel::FromPipeline(*d->pipeline), serve::ServerConfig{});
  d->server->Start();
  return d;
}

// ---------------------------------------------------------------------------
// Timed windows.

// What one timed window measured; client threads fill one each and the
// harness merges them.
struct Window {
  double seconds = 0;  // Until the last in-flight operation finished.
  double rss_mb = 0;   // Peak RSS behind peak_rss_mb.
  std::vector<double> latency_ms;  // Primary operation (Workload::op).
  std::vector<double> batch_ms;    // ClassifyBatch calls.
  uint64_t ops = 0;                // Primary operations answered.
  uint64_t batches = 0;
  uint64_t records = 0;            // Rows answered, all sessions.
  uint64_t attempted = 0;          // Operations started (batch = one).
  uint64_t failed = 0;             // Transport failures + wrong answers.
  uint64_t wrong = 0;
  // Session opens: constructor, first query, wire bytes through the first
  // answer.
  std::vector<double> handshake_ms;
  std::vector<double> first_query_ms;
  std::vector<double> session_bytes;
  // ClassifyWithStats / ClassifyBatch stats of the answered operations.
  double query_bytes = 0;
  double query_rounds = 0;
  double query_and_gates = 0;
  uint64_t stat_queries = 0;
  double batch_bytes = 0;
  uint64_t stat_batch_records = 0;
  std::vector<size_t> rows;  // Cohort rows classified.

  void Merge(const Window& o) {
    auto append = [](std::vector<double>& a, const std::vector<double>& b) {
      a.insert(a.end(), b.begin(), b.end());
    };
    append(latency_ms, o.latency_ms);
    append(batch_ms, o.batch_ms);
    append(handshake_ms, o.handshake_ms);
    append(first_query_ms, o.first_query_ms);
    append(session_bytes, o.session_bytes);
    ops += o.ops;
    batches += o.batches;
    records += o.records;
    attempted += o.attempted;
    failed += o.failed;
    wrong += o.wrong;
    query_bytes += o.query_bytes;
    query_rounds += o.query_rounds;
    query_and_gates += o.query_and_gates;
    stat_queries += o.stat_queries;
    batch_bytes += o.batch_bytes;
    stat_batch_records += o.stat_batch_records;
    rows.insert(rows.end(), o.rows.begin(), o.rows.end());
  }
};

class Harness {
 public:
  Harness(const Workload& workload, const Options& opt, Deployment& dep)
      : workload_(workload), opt_(opt), dep_(dep) {}

  // Runs the workload's closed loop for `seconds` after every session is
  // open and warm. `window` separates the client seeds of two windows in
  // one process; rows repeat, so two windows see the same inputs.
  Window RunWindow(double seconds, SpanLog& spans, uint64_t window) {
    std::vector<Window> parts(kSessions);
    std::latch ready(kSessions + 1);
    std::latch go(1);
    std::vector<std::thread> threads;
    churn_opened_ = 0;
    churn_rss_mb_ = 0;
    for (int t = 0; t < kSessions; ++t) {
      threads.emplace_back([&, t] {
        Session s{*this, spans, parts[t], ready, go,
                  RowSeed(static_cast<uint64_t>(t)),
                  ClientSeed(window, static_cast<uint64_t>(t))};
        s.Run(ThreadShape(t));
      });
    }
    ready.arrive_and_wait();
    ResetPeakRss();
    Timer wall;
    deadline_ = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(seconds));
    go.count_down();
    for (std::thread& t : threads) t.join();
    Window merged;
    merged.seconds = wall.ElapsedSeconds();
    for (const Window& p : parts) merged.Merge(p);
    merged.rss_mb = churn_rss_mb_ > 0 ? churn_rss_mb_.load() : PeakRssMb();
    return merged;
  }

  // Opens one more session after the timed window for the isolated serving
  // probes: a warm-up, `batch_calls` ClassifyBatch calls, and pings.
  struct ProbeResult {
    Window window;
    double batch_server_seconds = 0;  // serve.{query,batch}.seconds delta.
    std::vector<double> ping_us;
  };
  ProbeResult RunServingProbe(SpanLog& spans, int batch_calls) {
    ProbeResult r;
    Rng rows(RowSeed(kSessions));
    try {
      double unused = 0;
      SmcRunStats first;
      std::unique_ptr<serve::ClassificationClient> client = OpenSession(
          spans, NextRow(rows), ClientSeed(99, 0), r.window, &unused, &first);
      for (int i = 0; i < 2; ++i) Query(*client, spans, rows, r.window);
      obs::Histogram& q = obs::GetHistogram("serve.query.seconds");
      obs::Histogram& b = obs::GetHistogram("serve.batch.seconds");
      double before = q.Snap().sum + b.Snap().sum;
      for (int i = 0; i < batch_calls; ++i) {
        r.window.batch_ms.push_back(Batch(*client, spans, rows, r.window));
      }
      r.batch_server_seconds = q.Snap().sum + b.Snap().sum - before;
      for (int i = 0; i < 200; ++i) {
        Span span(spans, "serve.Ping", spans.NewOp());
        Timer timer;
        client->Ping();
        r.ping_us.push_back(timer.ElapsedMicros());
      }
      client->Close();
    } catch (const TransportError& e) {
      ++r.window.failed;
      ++r.window.attempted;
      std::fprintf(stderr, "serving probe failed: %s\n", e.what());
    }
    return r;
  }

  int Expected(size_t row) const {
    return dep_.pipeline->PlaintextPredict(dep_.cohort.row(row));
  }

 private:
  enum class Loop { kChurn, kQuery, kBatch };

  // One client thread's state for a window.
  struct Session {
    Harness& h;
    SpanLog& spans;
    Window& w;
    std::latch& ready;
    std::latch& go;
    uint64_t row_seed;
    uint64_t client_seed;

    void Run(Loop loop) {
      Rng rows(row_seed);
      std::unique_ptr<serve::ClassificationClient> client;
      bool warm = false;
      try {
        client = h.Warm(loop, spans, rows, client_seed++, w);
        warm = true;
      } catch (const std::exception& e) {
        ++w.failed;
        ++w.attempted;
        std::fprintf(stderr, "%s: warm-up failed: %s\n", h.workload_.name,
                     e.what());
      }
      ready.count_down();
      go.wait();
      if (!warm) return;
      while (Clock::now() < h.deadline_) {
        try {
          switch (loop) {
            case Loop::kChurn: {
              ++w.attempted;
              Span op(spans, "op.session", spans.NewOp());
              double ms = 0;
              SmcRunStats stats;
              size_t row = NextRow(rows);
              std::unique_ptr<serve::ClassificationClient> fresh =
                  h.OpenSession(spans, row, client_seed++, w, &ms, &stats);
              {
                Span close(spans, "serve.Close");
                fresh->Close();
              }
              if (h.churn_opened_.fetch_add(1) + 1 == kChurnRssSessions) {
                h.churn_rss_mb_ = PeakRssMb();
              }
              w.latency_ms.push_back(ms);
              AddQueryStats(w, stats);
              ++w.ops;
              ++w.records;
              break;
            }
            case Loop::kQuery:
              w.latency_ms.push_back(h.Query(*client, spans, rows, w));
              ++w.ops;
              break;
            case Loop::kBatch:
              w.batch_ms.push_back(h.Batch(*client, spans, rows, w));
              break;
          }
        } catch (const TransportError& e) {
          ++w.failed;
          std::fprintf(stderr, "%s: operation failed: %s\n",
                       h.workload_.name, e.what());
        } catch (const std::exception& e) {
          ++w.failed;
          std::fprintf(stderr, "%s: operation error: %s\n", h.workload_.name,
                       e.what());
          break;
        }
      }
      if (client != nullptr) client->Close();
    }
  };

  static void AddQueryStats(Window& w, const SmcRunStats& stats) {
    w.query_bytes += static_cast<double>(stats.bytes);
    w.query_rounds += static_cast<double>(stats.rounds);
    w.query_and_gates += static_cast<double>(stats.and_gates);
    ++w.stat_queries;
  }

  Loop ThreadShape(int t) const {
    switch (workload_.shape) {
      case Shape::kChurn:
        return Loop::kChurn;
      case Shape::kMixed:
        return t == 0 ? Loop::kQuery : Loop::kBatch;
      case Shape::kWarm:
        return Loop::kQuery;
    }
    return Loop::kQuery;
  }

  uint64_t RowSeed(uint64_t thread) const {
    return opt_.seed * 0x9E3779B97F4A7C15ull + thread * 0x632BE59BD9B4E019ull +
           1;
  }
  uint64_t ClientSeed(uint64_t window, uint64_t thread) const {
    return (opt_.seed << 24) ^ (window << 16) ^ (thread << 40) ^ 0xC11E47;
  }

  static size_t NextRow(Rng& rows) {
    return static_cast<size_t>(rows.NextU64Below(kCohortRows));
  }

  void CheckAnswer(int got, size_t row, Window& w) const {
    w.rows.push_back(row);
    int want = Expected(row);
    if (got != want) {
      ++w.wrong;
      ++w.failed;
      std::fprintf(stderr, "%s: row %zu answered %d, plaintext says %d\n",
                   workload_.name, row, got, want);
    }
  }

  // Opens a session and classifies `row`: the constructor (hello, session
  // setup, ticket) and the first query (base OTs, cold pools) are what a
  // new client waits for. `*session_ms` gets the sum.
  std::unique_ptr<serve::ClassificationClient> OpenSession(
      SpanLog& spans, size_t row, uint64_t client_seed, Window& w,
      double* session_ms, SmcRunStats* first) {
    serve::ClientConfig config;
    config.address = dep_.server->address();
    config.seed = client_seed;
    Timer timer;
    std::unique_ptr<serve::ClassificationClient> client;
    {
      Span span(spans, "serve.ClassificationClient");
      client = std::make_unique<serve::ClassificationClient>(config);
    }
    double handshake_ms = timer.ElapsedMillis();
    {
      Span span(spans, "serve.Classify");
      *first = client->ClassifyWithStats(dep_.cohort.row(row));
    }
    *session_ms = timer.ElapsedMillis();
    const ChannelStats& wire = client->wire_stats();
    w.handshake_ms.push_back(handshake_ms);
    w.first_query_ms.push_back(*session_ms - handshake_ms);
    w.session_bytes.push_back(
        static_cast<double>(wire.bytes_sent + wire.bytes_received));
    CheckAnswer(first->predicted_class, row, w);
    return client;
  }

  // A session warmed for the timed loop; churn threads open and close one
  // untimed session so process-wide lazy state is built before timing.
  std::unique_ptr<serve::ClassificationClient> Warm(Loop loop, SpanLog& spans,
                                                    Rng& rows,
                                                    uint64_t client_seed,
                                                    Window& w) {
    Window scratch;
    double ms = 0;
    SmcRunStats first;
    std::unique_ptr<serve::ClassificationClient> client = OpenSession(
        spans, NextRow(rows), client_seed, loop == Loop::kChurn ? scratch : w,
        &ms, &first);
    if (loop == Loop::kChurn) {
      client->Close();
      w.failed += scratch.failed;
      w.wrong += scratch.wrong;
      return nullptr;
    }
    for (int i = 1; i < kWarmQueries; ++i) {
      if (loop == Loop::kQuery) {
        Query(*client, spans, rows, scratch);
      } else if (i % 3 == 0) {
        Batch(*client, spans, rows, scratch);
      }
    }
    w.attempted += scratch.attempted;
    w.failed += scratch.failed;
    w.wrong += scratch.wrong;
    return client;
  }

  double Query(serve::ClassificationClient& client, SpanLog& spans, Rng& rows,
               Window& w) {
    size_t row = NextRow(rows);
    ++w.attempted;
    Span op(spans, "op.query", spans.NewOp());
    Timer timer;
    SmcRunStats stats;
    {
      Span span(spans, "serve.Classify");
      stats = client.ClassifyWithStats(dep_.cohort.row(row));
    }
    double ms = timer.ElapsedMillis();
    CheckAnswer(stats.predicted_class, row, w);
    AddQueryStats(w, stats);
    ++w.records;
    return ms;
  }

  double Batch(serve::ClassificationClient& client, SpanLog& spans, Rng& rows,
               Window& w) {
    std::vector<size_t> idx(kBatchRecords);
    std::vector<std::vector<int>> batch(kBatchRecords);
    for (int i = 0; i < kBatchRecords; ++i) {
      idx[i] = NextRow(rows);
      batch[i] = dep_.cohort.row(idx[i]);
    }
    ++w.attempted;
    Span op(spans, "op.batch", spans.NewOp());
    Timer timer;
    SmcRunStats stats;
    std::vector<int> got;
    {
      Span span(spans, "serve.ClassifyBatch");
      got = client.ClassifyBatch(batch, &stats);
    }
    double ms = timer.ElapsedMillis();
    if (got.size() != batch.size()) {
      throw ProtocolError("ClassifyBatch returned " +
                          std::to_string(got.size()) + " answers");
    }
    for (int i = 0; i < kBatchRecords; ++i) CheckAnswer(got[i], idx[i], w);
    w.batch_bytes += static_cast<double>(stats.bytes);
    w.stat_batch_records += static_cast<uint64_t>(kBatchRecords);
    w.records += static_cast<uint64_t>(kBatchRecords);
    ++w.batches;
    return ms;
  }

  const Workload& workload_;
  const Options& opt_;
  Deployment& dep_;
  Clock::time_point deadline_;  // Written before `go` releases the threads.
  std::atomic<uint64_t> churn_opened_{0};  // Churn sessions opened.
  std::atomic<double> churn_rss_mb_{0};    // Peak RSS at kChurnRssSessions.
};

// ---------------------------------------------------------------------------
// Isolated layer probes (traced run only, outside the timed window).

template <typename Fn>
std::vector<double> Repeat(int reps, Fn&& fn) {
  std::vector<double> out;
  for (int i = 0; i < reps; ++i) out.push_back(fn());
  return out;
}

double ProbeSelectMs(const Deployment& dep, SpanLog& spans) {
  return Median(Repeat(3, [&] {
    Span span(spans, "core.SelectGreedy", spans.NewOp());
    Timer timer;
    dep.pipeline->selector().SelectGreedy(kRiskBudget);
    return timer.ElapsedMillis();
  }));
}

// Trains what the pipeline constructor trains for this classifier.
double ProbeTrainMs(const Deployment& dep, ClassifierKind kind,
                    SpanLog& spans) {
  return Median(Repeat(3, [&] {
    Span span(spans, "ml.Train", spans.NewOp());
    Timer timer;
    NaiveBayes nb;
    nb.Train(dep.cohort);
    DecisionTree tree;
    tree.Train(dep.cohort);
    LinearModel linear;
    linear.Train(dep.cohort, LinearTrainParams());
    if (kind == ClassifierKind::kForest) {
      RandomForest forest;
      Rng rng(PipelineConfig{}.seed + 17);
      forest.Train(dep.cohort, ForestParams(), rng);
    }
    return timer.ElapsedMillis();
  }));
}

// OtExtSender::Setup ∥ OtExtReceiver::Setup on an in-memory channel pair.
double ProbeBaseOtMs(SpanLog& spans) {
  return Median(Repeat(5, [&] {
    Span span(spans, "ot.Setup", spans.NewOp());
    MemChannelPair channel;
    OtExtSender sender;
    OtExtReceiver receiver;
    Rng rng_s(101), rng_r(102);
    Timer timer;
    std::thread peer([&] { sender.Setup(channel.endpoint(0), rng_s); });
    receiver.Setup(channel.endpoint(1), rng_r);
    peer.join();
    return timer.ElapsedMillis();
  }));
}

// SendRandom ∥ RecvRandom at the pool depth; checks the pads pair up.
double ProbeRandomOtUs(SpanLog& spans, bool* ok) {
  MemChannelPair channel;
  OtExtSender sender;
  OtExtReceiver receiver;
  Rng rng_s(201), rng_r(202);
  std::thread setup([&] { sender.Setup(channel.endpoint(0), rng_s); });
  receiver.Setup(channel.endpoint(1), rng_r);
  setup.join();
  return Median(Repeat(5, [&] {
    Span span(spans, "ot.SendRandom", spans.NewOp());
    std::vector<std::array<Block, 2>> sent;
    Timer timer;
    std::thread peer(
        [&] { sent = sender.SendRandom(channel.endpoint(0), kOtPoolDepth); });
    RandomOtBatch got =
        receiver.RecvRandom(channel.endpoint(1), rng_r, kOtPoolDepth);
    peer.join();
    double us = timer.ElapsedMicros() / kOtPoolDepth;
    for (size_t j = 0; j < got.pads.size(); j += 97) {
      if (sent[j][got.choices.Get(j) ? 1 : 0] != got.pads[j]) *ok = false;
    }
    return us;
  }));
}

struct GcProbe {
  double garble_ns_per_and = 0;
  double eval_ns_per_and = 0;
};

// Garble / EvaluateGarbled on one circuit, single-threaded; every
// evaluation is decoded and checked against Circuit::Evaluate.
GcProbe ProbeGc(const Circuit& circuit, const BitVec& garbler_bits,
                const BitVec& evaluator_bits, SpanLog& spans, bool* ok) {
  double ands = static_cast<double>(std::max<size_t>(
      circuit.Stats().and_gates, 1));
  BitVec want = circuit.Evaluate(garbler_bits, evaluator_bits);
  Prg prg(Block(0x6a09e667f3bcc908ull, 0xbb67ae8584caa73bull));
  std::vector<double> garble_ns, eval_ns;
  Timer budget;
  while (garble_ns.size() < 200 &&
         (garble_ns.size() < 10 || budget.ElapsedSeconds() < 0.25)) {
    Span span(spans, "gc.GarbleEvaluate", spans.NewOp());
    Timer garble_timer;
    GarbledCircuit gc = Garble(circuit, prg);
    garble_ns.push_back(garble_timer.ElapsedSeconds() * 1e9 / ands);
    std::vector<Block> labels;
    labels.reserve(gc.input_labels.size());
    for (uint32_t i = 0; i < circuit.garbler_inputs(); ++i) {
      labels.push_back(gc.input_labels[i][garbler_bits.Get(i) ? 1 : 0]);
    }
    for (uint32_t i = 0; i < circuit.evaluator_inputs(); ++i) {
      labels.push_back(gc.input_labels[circuit.garbler_inputs() + i]
                                      [evaluator_bits.Get(i) ? 1 : 0]);
    }
    Timer eval_timer;
    std::vector<Block> out = EvaluateGarbled(circuit, gc.and_tables, labels);
    eval_ns.push_back(eval_timer.ElapsedSeconds() * 1e9 / ands);
    BitVec bits = DecodeOutputs(out, gc.output_decode);
    if (bits.ToString() != want.ToString()) *ok = false;
  }
  return GcProbe{Median(garble_ns), Median(eval_ns)};
}

// MontgomeryCtx::Exp at the base-OT group size: 1024-bit modulus, 256-bit
// exponents. The first result is checked against ExpBinary.
double ProbeModexpUs(SpanLog& spans, bool* ok) {
  Rng rng(0xB16);
  BigInt modulus = BigInt::RandomBits(rng, 1024);
  if (!modulus.is_odd()) modulus = modulus + BigInt(1);
  MontgomeryCtx ctx(modulus);
  BigInt base = BigInt::RandomBelow(rng, modulus);
  std::vector<double> us;
  for (int i = 0; i < 64; ++i) {
    BigInt e = BigInt::RandomBits(rng, 256);
    Span span(spans, "bignum.Exp", spans.NewOp());
    Timer timer;
    BigInt r = ctx.Exp(base, e);
    us.push_back(timer.ElapsedMicros());
    if (i == 0 && r != ctx.ExpBinary(base, e)) *ok = false;
  }
  return Median(us);
}

struct PaillierProbe {
  double encrypt_pooled_us = 0;
  double decrypt_us = 0;
};

// EncryptWithPad on pooled pads and CRT Decrypt at the serving key size;
// every ciphertext must decrypt to its plaintext.
PaillierProbe ProbePaillier(SpanLog& spans, bool* ok) {
  Rng rng(0x9A11);
  PaillierKeyPair keys = GeneratePaillierKey(rng, PipelineConfig{}.paillier_bits);
  constexpr int kOps = 64;
  PaillierPadPool pool(keys.public_key, kOps);
  pool.Refill(rng, kOps);
  std::vector<double> enc_us, dec_us;
  for (int i = 0; i < kOps; ++i) {
    BigInt m(static_cast<int64_t>(rng.NextU64Below(1u << 30)) - (1 << 29));
    BigInt pad;
    if (!pool.TryTake(&pad)) {
      *ok = false;
      break;
    }
    Span span(spans, "crypto.Paillier", spans.NewOp());
    Timer enc_timer;
    BigInt c = keys.public_key.EncryptWithPad(m, pad);
    enc_us.push_back(enc_timer.ElapsedMicros());
    Timer dec_timer;
    BigInt back = keys.private_key.Decrypt(c);
    dec_us.push_back(dec_timer.ElapsedMicros());
    if (back != m) *ok = false;
  }
  if (enc_us.empty()) return PaillierProbe{};
  return PaillierProbe{Median(enc_us), Median(dec_us)};
}

// ---------------------------------------------------------------------------
// Reporting.

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

// Host and build facts that decide what the numbers mean: a 1-thread and a
// 4-thread run must never be confused. The package never builds with
// -march=native, so pafs_native is always false.
std::string Fingerprint() {
  const char* threads_env = std::getenv("PAFS_THREADS");
  ThreadPool* global = ThreadPool::Global();
  unsigned hw = std::thread::hardware_concurrency();
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "{\"nproc\": %ld, \"hardware_concurrency\": %u, \"aes_ni\": %s, "
      "\"force_portable\": %s, \"compiler\": \"%s\", \"build_type\": \"%s\", "
      "\"pafs_native\": false, \"pafs_threads\": \"%s\", "
      "\"global_pool_threads\": %d, \"server_workers\": %d, "
      "\"client_threads\": %d}",
      sysconf(_SC_NPROCESSORS_ONLN), hw, CpuHasAesNi() ? "true" : "false",
      ForcePortable() ? "true" : "false", JsonEscape(__VERSION__).c_str(),
      PERFBENCH_BUILD_TYPE,
      threads_env != nullptr ? JsonEscape(threads_env).c_str() : "unset",
      global != nullptr ? global->num_threads() : 1,
      std::max(2, static_cast<int>(hw)), kSessions);
  return buf;
}

std::string PlanJson(const Deployment& dep, ClassifierKind kind) {
  const DisclosurePlan& plan = dep.pipeline->plan();
  std::string names;
  for (int f : plan.features) {
    if (!names.empty()) names += ", ";
    names += '"';
    names += JsonEscape(dep.cohort.features()[f].name);
    names += '"';
  }
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"classifier\": \"%s\", \"risk_budget\": %.17g, "
                "\"paillier_bits\": %d, \"features\": [%s], "
                "\"risk_lift\": %.17g, \"speedup_vs_pure\": %.17g, "
                "\"risk_evaluations\": %zu}",
                ClassifierName(kind), kRiskBudget,
                dep.pipeline->config().paillier_bits, names.c_str(),
                plan.risk_lift, plan.speedup_vs_pure, plan.risk_evaluations);
  return buf;
}

size_t DistinctDisclosureKeys(const Deployment& dep,
                              const std::vector<size_t>& rows) {
  std::set<std::vector<int>> keys;
  for (size_t r : rows) {
    std::vector<int> key;
    for (int f : dep.pipeline->plan().features) {
      key.push_back(dep.cohort.row(r)[f]);
    }
    keys.insert(std::move(key));
  }
  return keys.size();
}

double SafeDiv(double a, double b) { return b > 0 ? a / b : 0.0; }

std::vector<Metric> EndToEnd(const Workload& w, const Window& win,
                             double setup_s) {
  return {
      {"setup_s", setup_s, "s"},
      {"latency_p50_ms", Percentile(win.latency_ms, 0.5), "ms"},
      {"latency_tail_ms", Percentile(win.latency_ms, w.tail_q), "ms"},
      {"ops_per_s", SafeDiv(static_cast<double>(win.ops), win.seconds), "1/s"},
      {"records_per_s", SafeDiv(static_cast<double>(win.records), win.seconds),
       "1/s"},
      {"peak_rss_mb", win.rss_mb, "MiB"},
  };
}

void PrintSummary(const Workload& w, const char* label, const Window& win,
                  const std::vector<Metric>& e2e, double failed_share) {
  std::printf("# %s %s window: %.3f s, %zu latency samples (%s), "
              "tail = nearest-rank p%g\n",
              w.name, label, win.seconds, win.latency_ms.size(), w.op,
              w.tail_q * 100);
  for (const Metric& m : e2e) {
    std::printf("#   %-18s %14.4f %s\n", m.name.c_str(), m.value, m.unit);
  }
  if (!win.batch_ms.empty()) {
    std::printf("#   %-18s %14.4f ms (n=%zu ClassifyBatch(%d) calls)\n",
                "batch_p50_ms", Percentile(win.batch_ms, 0.5),
                win.batch_ms.size(), kBatchRecords);
  }
  std::printf("#   %-18s %14.6f ratio (%llu failed of %llu attempted)\n",
              "failed_share", failed_share,
              static_cast<unsigned long long>(win.failed),
              static_cast<unsigned long long>(win.attempted));
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[256];
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, "
                  "\"unit\": \"%s\"}", i == 0 ? "" : ", ",
                  metrics[i].name.c_str(), metrics[i].value, metrics[i].unit);
    out += buf;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

// ---------------------------------------------------------------------------

int Usage(const char* why) {
  std::fprintf(stderr,
               "pafs_perfbench: %s\nusage: pafs_perfbench --workload "
               "churn_forest|mixed_forest|warm_linear --seed N --seconds S "
               "--trace 0|1 [--trace-dir DIR]\n",
               why);
  return 2;
}

int Main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    std::string value = argv[++i];
    if (arg == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (value == w.name) opt.workload = &w;
      }
      if (opt.workload == nullptr) return Usage("unknown workload");
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::atof(value.c_str());
    } else if (arg == "--trace") {
      opt.trace = value == "1";
    } else if (arg == "--trace-dir") {
      opt.trace_dir = value;
    } else {
      return Usage(("unknown flag " + arg).c_str());
    }
  }
  if (opt.workload == nullptr) return Usage("--workload is required");
  if (!(opt.seconds > 0)) return Usage("--seconds must be positive");
  const Workload& w = *opt.workload;

  std::string fingerprint = Fingerprint();
  std::printf("{\"fingerprint\": %s}\n", fingerprint.c_str());

  // Set-up, repeated; the last deployment serves the run.
  std::vector<double> setup_seconds;  // Rescaled to kReferenceNominalMs.
  std::vector<double> setup_wall;
  std::vector<double> reference_ms;
  std::unique_ptr<Deployment> dep;
  Timer setup_budget;
  while (setup_seconds.size() < static_cast<size_t>(kMinSetupReps) ||
         (setup_seconds.size() < static_cast<size_t>(kMaxSetupReps) &&
          setup_budget.ElapsedSeconds() < kSetupBudgetSeconds)) {
    dep.reset();
    double before = ReferenceMs();
    Timer timer;
    dep = Deploy(w.kind);
    double wall = timer.ElapsedSeconds();
    double ms = (before + ReferenceMs()) / 2;
    setup_wall.push_back(wall);
    reference_ms.push_back(ms);
    setup_seconds.push_back(wall * kReferenceNominalMs / ms);
  }
  double setup_s = Median(setup_seconds);
  std::printf("{\"plan\": %s}\n", PlanJson(*dep, w.kind).c_str());
  std::printf("# setup_s = median of %zu set-ups rescaled to a %.0f ms "
              "reference (min %.4f s, max %.4f s); wall median %.4f s, "
              "reference median %.2f ms\n",
              setup_seconds.size(), kReferenceNominalMs,
              *std::min_element(setup_seconds.begin(), setup_seconds.end()),
              *std::max_element(setup_seconds.begin(), setup_seconds.end()),
              Median(setup_wall), Median(reference_ms));

  // A traced run splits its time between an untraced and a traced window,
  // so both kinds of run take about as long.
  Harness harness(w, opt, *dep);
  double window_s = opt.trace ? opt.seconds / 2 : opt.seconds;
  SpanLog untraced(false);
  Window plain = harness.RunWindow(window_s, untraced, 0);
  std::vector<Metric> e2e = EndToEnd(w, plain, setup_s);
  uint64_t attempted = plain.attempted;
  uint64_t wrong = plain.wrong;

  if (!opt.trace) {
    dep->server->Stop();
    serve::ServerStats stats = dep->server->stats();
    uint64_t failed =
        plain.failed + stats.queries_shed + stats.sessions_failed;
    PrintSummary(w, "untraced", plain, e2e,
                 SafeDiv(static_cast<double>(failed),
                         static_cast<double>(attempted)));
    bool ok = wrong == 0 && failed == 0;
    PrintResult(ok, attempted, failed, e2e);
    return ok ? 0 : 1;
  }
  PrintSummary(w, "untraced", plain, e2e,
               SafeDiv(static_cast<double>(plain.failed),
                       static_cast<double>(attempted)));

  // Traced window: same rows, fresh sessions, spans + telemetry on.
  SpanLog spans(true);
  auto counter = [](const char* name) {
    return static_cast<double>(obs::GetCounter(name).value());
  };
  PafsTelemetry::Enable();
  serve::ServerStats before = dep->server->stats();
  double gc_hit0 = counter("gc.pool.hit"), gc_miss0 = counter("gc.pool.miss");
  double ot_hit0 = counter("ot.pool.hit"), ot_miss0 = counter("ot.pool.miss");
  obs::Histogram::Snapshot q0 =
      obs::GetHistogram("serve.query.seconds").Snap();
  obs::Histogram::Snapshot b0 =
      obs::GetHistogram("serve.batch.seconds").Snap();
  Window traced = harness.RunWindow(window_s, spans, 1);
  obs::Histogram::Snapshot q1 =
      obs::GetHistogram("serve.query.seconds").Snap();
  obs::Histogram::Snapshot b1 =
      obs::GetHistogram("serve.batch.seconds").Snap();
  double gc_hits = counter("gc.pool.hit") - gc_hit0;
  double gc_takes = gc_hits + counter("gc.pool.miss") - gc_miss0;
  double ot_hits = counter("ot.pool.hit") - ot_hit0;
  double ot_takes = ot_hits + counter("ot.pool.miss") - ot_miss0;
  serve::ServerStats after = dep->server->stats();
  std::vector<Metric> traced_e2e = EndToEnd(w, traced, setup_s);
  PrintSummary(w, "traced", traced, traced_e2e,
               SafeDiv(static_cast<double>(traced.failed),
                       static_cast<double>(traced.attempted)));

  // Serving probe on a quiet server: batch calls when the window ran none
  // (linear runs them as per-row queries), then pings.
  int batch_calls = traced.batches > 0
                        ? 0
                        : (w.kind == ClassifierKind::kLinear ? 1 : 4);
  Harness::ProbeResult probe = harness.RunServingProbe(spans, batch_calls);
  PafsTelemetry::Disable();

  // Kernel probes, telemetry off.
  bool probes_ok = true;
  double select_ms = ProbeSelectMs(*dep, spans);
  double train_ms = ProbeTrainMs(*dep, w.kind, spans);
  double base_ot_ms = ProbeBaseOtMs(spans);
  double random_ot_us = ProbeRandomOtUs(spans, &probes_ok);
  double modexp_us = ProbeModexpUs(spans, &probes_ok);
  PaillierProbe paillier = ProbePaillier(spans, &probes_ok);

  // Circuits: the specialised forest circuit of each sampled row (label OTs
  // per query = evaluator inputs), or the linear argmax circuit.
  const DisclosurePlan& plan = dep->pipeline->plan();
  const std::vector<FeatureSpec>& features = dep->cohort.features();
  int classes = dep->cohort.num_classes();
  std::map<int, int> plan_keys;
  for (int f : plan.features) plan_keys.emplace(f, 0);
  SecureLinearProtocol linear_spec(features, classes, plan_keys);
  double ot_per_query = 0;
  GcProbe gc;
  if (w.kind == ClassifierKind::kForest) {
    std::vector<size_t> sample(traced.rows.begin(),
                               traced.rows.begin() +
                                   std::min<size_t>(traced.rows.size(), 64));
    double inputs = 0;
    for (size_t r : sample) {
      const std::vector<int>& row = dep->cohort.row(r);
      std::map<int, int> disclosed;
      for (int f : plan.features) disclosed[f] = row[f];
      RandomForest specialized = dep->pipeline->forest().Specialize(disclosed);
      SecureForestCircuit spec(specialized, features, classes, disclosed);
      inputs += spec.circuit().evaluator_inputs();
      if (r == sample.front()) {
        BitVec garbler_bits = spec.EncodeModel(specialized);
        BitVec evaluator_bits = spec.EncodeRow(row);
        if (spec.DecodeOutput(spec.circuit().Evaluate(
                garbler_bits, evaluator_bits)) != harness.Expected(r)) {
          probes_ok = false;
        }
        gc = ProbeGc(spec.circuit(), garbler_bits, evaluator_bits, spans,
                     &probes_ok);
      }
    }
    ot_per_query = SafeDiv(inputs, static_cast<double>(sample.size()));
  } else {
    const Circuit& argmax = linear_spec.argmax_circuit();
    Rng bits_rng(opt.seed);
    BitVec garbler_bits(argmax.garbler_inputs());
    BitVec evaluator_bits(argmax.evaluator_inputs());
    for (size_t i = 0; i < garbler_bits.size(); ++i) {
      garbler_bits.Set(i, bits_rng.NextBool());
    }
    for (size_t i = 0; i < evaluator_bits.size(); ++i) {
      evaluator_bits.Set(i, bits_rng.NextBool());
    }
    ot_per_query = argmax.evaluator_inputs();
    gc = ProbeGc(argmax, garbler_bits, evaluator_bits, spans, &probes_ok);
  }

  // Server-side time of the window's single queries and batches, read from
  // the serve.* histograms as means (means subtract; quantiles do not).
  double server_query_ms =
      SafeDiv(q1.sum - q0.sum, static_cast<double>(q1.count - q0.count)) * 1e3;
  double client_query_ms = w.shape == Shape::kChurn
                               ? Mean(traced.first_query_ms)
                               : Mean(traced.latency_ms);
  bool window_batches = traced.batches > 0;
  double server_batch_ms =
      window_batches
          ? SafeDiv(b1.sum - b0.sum, static_cast<double>(b1.count - b0.count)) *
                1e3
          : SafeDiv(probe.batch_server_seconds, batch_calls) * 1e3;
  const Window& batch_src = window_batches ? traced : probe.window;
  Window opens = traced;  // Session opens of the window and the probe.
  opens.Merge(probe.window);

  dep->server->Stop();
  serve::ServerStats final_stats = dep->server->stats();
  std::vector<size_t> all_rows = plain.rows;
  all_rows.insert(all_rows.end(), traced.rows.begin(), traced.rows.end());
  attempted += traced.attempted + probe.window.attempted;
  uint64_t failed = plain.failed + traced.failed + probe.window.failed +
                    final_stats.queries_shed + final_stats.sessions_failed;
  wrong += traced.wrong + probe.window.wrong;
  if (!probes_ok) {
    ++wrong;
    std::fprintf(stderr, "a layer probe produced a wrong result\n");
  }

  std::vector<Metric> layers = {
      {"core.select_ms", select_ms, "ms"},
      {"core.risk_evaluations", static_cast<double>(plan.risk_evaluations),
       "count"},
      {"core.plan_features", static_cast<double>(plan.features.size()),
       "count"},
      {"core.plan_speedup_vs_pure", plan.speedup_vs_pure, "ratio"},
      {"core.plan_risk_lift", plan.risk_lift, "ratio"},
      {"ml.train_ms", train_ms, "ms"},
      {"serve.handshake_ms", Median(opens.handshake_ms), "ms"},
      {"serve.first_query_ms", Median(opens.first_query_ms), "ms"},
      {"serve.server_query_ms", server_query_ms, "ms"},
      {"serve.server_batch_ms", server_batch_ms, "ms"},
      {"serve.outside_server_ms", client_query_ms - server_query_ms, "ms"},
      {"serve.batch_p50_ms", Percentile(batch_src.batch_ms, 0.5), "ms"},
      {"serve.ping_rtt_us", Median(probe.ping_us), "us"},
      {"serve.gc_pool_hit_share", SafeDiv(gc_hits, gc_takes), "ratio"},
      {"serve.gc_pool_takes", gc_takes, "count"},
      {"serve.ot_pool_hit_share", SafeDiv(ot_hits, ot_takes), "ratio"},
      {"serve.ot_pool_takes", ot_takes, "count"},
      {"serve.gc_pregarbled",
       static_cast<double>(after.gc_pregarbled - before.gc_pregarbled),
       "count"},
      {"serve.ot_pads_precomputed",
       static_cast<double>(after.ot_pads_precomputed -
                           before.ot_pads_precomputed),
       "count"},
      {"serve.paillier_pads_precomputed",
       static_cast<double>(after.pool_pads_precomputed -
                           before.pool_pads_precomputed),
       "count"},
      {"serve.queries_shed", static_cast<double>(final_stats.queries_shed),
       "count"},
      {"serve.sessions_failed",
       static_cast<double>(final_stats.sessions_failed), "count"},
      {"serve.distinct_disclosure_keys",
       static_cast<double>(DistinctDisclosureKeys(*dep, all_rows)), "count"},
      {"serve.failed_share",
       SafeDiv(static_cast<double>(failed), static_cast<double>(attempted)),
       "ratio"},
      {"ot.base_setup_ms", base_ot_ms, "ms"},
      {"ot.random_us_per_ot", random_ot_us, "us"},
      {"ot.transfers_per_query", ot_per_query, "count"},
      {"gc.and_gates_per_query",
       SafeDiv(traced.query_and_gates,
               static_cast<double>(traced.stat_queries)),
       "count"},
      {"gc.garble_ns_per_and", gc.garble_ns_per_and, "ns"},
      {"gc.eval_ns_per_and", gc.eval_ns_per_and, "ns"},
      {"net.bytes_per_query",
       SafeDiv(traced.query_bytes, static_cast<double>(traced.stat_queries)),
       "B"},
      {"net.rounds_per_query",
       SafeDiv(traced.query_rounds, static_cast<double>(traced.stat_queries)),
       "count"},
      {"net.bytes_per_record",
       SafeDiv(batch_src.batch_bytes,
               static_cast<double>(batch_src.stat_batch_records)),
       "B"},
      {"net.session_setup_bytes", Median(opens.session_bytes), "B"},
      {"bignum.modexp_us", modexp_us, "us"},
      {"crypto.paillier_encrypt_pooled_us", paillier.encrypt_pooled_us, "us"},
      {"crypto.paillier_decrypt_us", paillier.decrypt_us, "us"},
      {"smc.linear_client_ciphertexts",
       static_cast<double>(linear_spec.NumClientCiphertexts()), "count"},
      {"trace_overhead",
       SafeDiv(Percentile(traced.latency_ms, 0.5),
               Percentile(plain.latency_ms, 0.5)),
       "ratio"},
  };

  std::printf("# span self time over the traced window and probes:\n");
  for (const auto& [name, s] : spans.Summarize()) {
    std::printf("#   %-28s n=%-7llu total %12.3f ms  self %12.3f ms\n",
                name.c_str(), static_cast<unsigned long long>(s.count),
                s.total_ms, s.self_ms);
  }
  if (!opt.trace_dir.empty()) {
    std::string path = opt.trace_dir + "/" + w.name + "-seed" +
                       std::to_string(opt.seed) + ".json";
    std::string header = "\"workload\": \"" + std::string(w.name) +
                         "\", \"seed\": " + std::to_string(opt.seed) +
                         ", \"fingerprint\": " + fingerprint;
    if (spans.WriteJson(path, header)) {
      std::printf("# spans written to %s\n", path.c_str());
    } else {
      std::fprintf(stderr, "could not write spans to %s\n", path.c_str());
    }
  }
  bool ok = wrong == 0 && failed == 0;
  PrintResult(ok, attempted, failed, layers);
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace pafs::perfbench

int main(int argc, char** argv) {
  try {
    return pafs::perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pafs_perfbench: %s\n", e.what());
    return 1;
  }
}
