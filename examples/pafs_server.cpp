// pafs_server — stand up a secure-classification server from a cohort CSV:
//
//   pafs_server <nb|tree|linear|forest> <train.csv> <budget>
//               [--listen=tcp:HOST:PORT|unix:PATH] [--max-sessions=N]
//               [--threads=N] [--max-pending=N] [--idle-timeout=SECONDS]
//               [--resume-cache=N] [--query-budget=SECONDS]
//               [--gc-pool-depth=N] [--ot-pool-depth=N]
//               [--batch-max-records=N] [--no-pool] [--breakdown]
//
// Trains the classifier, selects the privacy-aware disclosure plan under
// the given risk budget, and serves secure classifications to concurrent
// pafs_client sessions until SIGINT/SIGTERM (graceful drain: in-flight
// queries finish, idle sessions close). The CSV must follow one of the
// bundled schemas (see pafs_cli generate).
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>

#include "core/pipeline.h"
#include "data/csv.h"
#include "data/hypertension_gen.h"
#include "data/warfarin_gen.h"
#include "net/socket.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "serve/model.h"
#include "serve/server.h"
#include "util/random.h"

using namespace pafs;

namespace {

std::atomic<bool> g_stop{false};

void HandleSignal(int) { g_stop.store(true); }

int Usage() {
  std::fprintf(
      stderr,
      "usage: pafs_server <nb|tree|linear|forest> <train.csv> <budget>\n"
      "                   [--listen=tcp:HOST:PORT|unix:PATH]\n"
      "                   [--max-sessions=N] [--threads=N]\n"
      "                   [--max-pending=N] [--idle-timeout=SECONDS]\n"
      "                   [--resume-cache=N] [--query-budget=SECONDS]\n"
      "                   [--gc-pool-depth=N] [--ot-pool-depth=N]\n"
      "                   [--batch-max-records=N] [--no-pool]\n"
      "                   [--breakdown]\n"
      "  --resume-cache=N     suspended-session snapshots kept for ticket\n"
      "                       resumption (0 disables resume tickets)\n"
      "  --query-budget=S     watchdog cancels any single query running\n"
      "                       longer than S seconds (0 = unlimited)\n"
      "  --gc-pool-depth=N    circuits pre-garbled per disclosure key\n"
      "                       between queries (0 disables the GC pool)\n"
      "  --ot-pool-depth=N    random-OT pads precomputed per idle session\n"
      "                       for label transfer (0 disables the pad pool)\n"
      "  --batch-max-records=N  largest ClassifyBatch a session may submit\n"
      "                       in one wire batch\n"
      "  --no-pool            serve every query with online garbling\n"
      "                       and online OT extension\n"
      "                       (same as PAFS_NO_POOL=1)\n");
  return 2;
}

StatusOr<Dataset> LoadAnyCohort(const std::string& path) {
  Rng rng(1);
  Dataset warfarin_schema = GenerateWarfarinCohort(1, rng);
  StatusOr<Dataset> as_warfarin =
      LoadCsv(path, warfarin_schema.features(), kWarfarinNumClasses);
  if (as_warfarin.ok()) return as_warfarin;
  Dataset hypertension_schema = GenerateHypertensionCohort(1, rng);
  return LoadCsv(path, hypertension_schema.features(),
                 kHypertensionNumClasses);
}

bool ParseClassifier(const char* name, ClassifierKind* kind) {
  if (std::strcmp(name, "nb") == 0) {
    *kind = ClassifierKind::kNaiveBayes;
  } else if (std::strcmp(name, "tree") == 0) {
    *kind = ClassifierKind::kDecisionTree;
  } else if (std::strcmp(name, "linear") == 0) {
    *kind = ClassifierKind::kLinear;
  } else if (std::strcmp(name, "forest") == 0) {
    *kind = ClassifierKind::kForest;
  } else {
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 4) return Usage();
  ClassifierKind kind;
  if (!ParseClassifier(argv[1], &kind)) return Usage();
  double budget = std::strtod(argv[3], nullptr);

  serve::ServerConfig server_config;
  bool breakdown = false;
  for (int i = 4; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--listen=", 9) == 0) {
      StatusOr<SocketAddress> addr = SocketAddress::Parse(arg + 9);
      if (!addr.ok()) {
        std::fprintf(stderr, "bad --listen: %s\n",
                     addr.status().message().c_str());
        return 2;
      }
      server_config.address = addr.value();
    } else if (std::strncmp(arg, "--max-sessions=", 15) == 0) {
      server_config.max_sessions = std::atoi(arg + 15);
    } else if (std::strncmp(arg, "--threads=", 10) == 0) {
      server_config.num_threads = std::atoi(arg + 10);
    } else if (std::strncmp(arg, "--max-pending=", 14) == 0) {
      server_config.max_pending_queries = std::atoi(arg + 14);
    } else if (std::strncmp(arg, "--idle-timeout=", 15) == 0) {
      server_config.idle_timeout_seconds = std::strtod(arg + 15, nullptr);
    } else if (std::strncmp(arg, "--resume-cache=", 15) == 0) {
      server_config.resume_cache_entries = std::atoi(arg + 15);
    } else if (std::strncmp(arg, "--query-budget=", 15) == 0) {
      server_config.query_budget_seconds = std::strtod(arg + 15, nullptr);
    } else if (std::strncmp(arg, "--gc-pool-depth=", 16) == 0) {
      server_config.gc_pool_depth = std::atoi(arg + 16);
    } else if (std::strncmp(arg, "--ot-pool-depth=", 16) == 0) {
      server_config.ot_pool_depth = std::atoi(arg + 16);
    } else if (std::strncmp(arg, "--batch-max-records=", 20) == 0) {
      server_config.batch_max_records = std::atoi(arg + 20);
    } else if (std::strcmp(arg, "--no-pool") == 0) {
      server_config.enable_pools = false;
    } else if (std::strcmp(arg, "--breakdown") == 0) {
      breakdown = true;
      PafsTelemetry::Enable();
    } else {
      return Usage();
    }
  }

  StatusOr<Dataset> data = LoadAnyCohort(argv[2]);
  if (!data.ok()) {
    std::fprintf(stderr, "error loading %s: %s\n", argv[2],
                 data.status().message().c_str());
    return 1;
  }

  std::printf("training %s on %zu rows, risk budget %.3f...\n", argv[1],
              data.value().size(), budget);
  PipelineConfig config;
  config.classifier = kind;
  config.risk_budget = budget;
  SecureClassificationPipeline pipeline(data.value(), config);
  std::printf("disclosure plan: %zu of %d features, risk lift %.4f\n",
              pipeline.plan().features.size(),
              data.value().num_features(), pipeline.plan().risk_lift);

  try {
    serve::ClassificationServer server(
        serve::ServingModel::FromPipeline(pipeline), server_config);
    server.Start();
    std::printf("serving on %s (max %d sessions); Ctrl-C to drain\n",
                server.address().ToString().c_str(),
                server_config.max_sessions);
    std::fflush(stdout);

    std::signal(SIGINT, HandleSignal);
    std::signal(SIGTERM, HandleSignal);
    while (!g_stop.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
    }
    std::printf("draining...\n");
    server.Stop();
    serve::ServerStats stats = server.stats();
    std::printf("served %llu queries over %llu sessions "
                "(%llu rejected, %llu failed, %llu reaped, %llu shed)\n",
                static_cast<unsigned long long>(stats.queries_served),
                static_cast<unsigned long long>(stats.sessions_accepted),
                static_cast<unsigned long long>(stats.sessions_rejected),
                static_cast<unsigned long long>(stats.sessions_failed),
                static_cast<unsigned long long>(stats.sessions_reaped),
                static_cast<unsigned long long>(stats.queries_shed));
    std::printf("recovery: %llu resumptions (%llu ticket misses), "
                "%llu replayed queries, %llu watchdog cancellations\n",
                static_cast<unsigned long long>(stats.resumptions),
                static_cast<unsigned long long>(stats.resume_misses),
                static_cast<unsigned long long>(stats.replay_hits),
                static_cast<unsigned long long>(stats.queries_cancelled));
    std::printf("offline precompute: %llu pre-garbled circuits, %llu OT "
                "pads filled while idle\n",
                static_cast<unsigned long long>(stats.gc_pregarbled),
                static_cast<unsigned long long>(stats.ot_pads_precomputed));
    std::printf("batching: %llu wire batches covering %llu records\n",
                static_cast<unsigned long long>(stats.batches_served),
                static_cast<unsigned long long>(stats.batch_records));
  } catch (const TransportError& e) {
    std::fprintf(stderr, "server error: %s\n", e.what());
    return 1;
  }
  if (breakdown || obs::Enabled()) {  // --breakdown or PAFS_TELEMETRY=1.
    std::printf("%s", obs::RenderText().c_str());
  }
  return 0;
}
