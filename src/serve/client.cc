#include "serve/client.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <thread>

#include "net/error.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/timer.h"

namespace pafs::serve {

namespace {

// Each backoff sleep is scaled by a uniform factor in [1 - j, 1 + j] so a
// shed client herd does not reconnect in lockstep.
constexpr double kRetryJitterFraction = 0.25;
// Bound on one TCP/UDS connect; a retry follows a timeout like any fault.
constexpr double kConnectTimeoutSeconds = 5;

}  // namespace

ClassificationClient::ClassificationClient(const ClientConfig& config)
    : config_(config), rng_(config.seed) {
  // The injector outlives every reconnect, so a bounded FaultPlan keeps
  // its budget across sessions: a max_faults=1 plan fires once, the retry
  // runs clean, and "one fault, zero client-visible failures" is testable.
  if (config_.fault_plan.enabled()) injector_.emplace(config_.fault_plan);
  if (ResumeDisabledByEnv()) config_.enable_resume = false;
  WithRetry(nullptr);
}

ClassificationClient::~ClassificationClient() {
  try {
    Close();
  } catch (...) {
    // Destructor close is best-effort; the socket fd is released anyway.
  }
}

void ClassificationClient::ConnectOnce() {
  // Tear down in dependency order before rebuilding: framed_ references
  // faulty_/socket_, faulty_ references socket_.
  framed_.reset();
  faulty_.reset();
  socket_ = SocketConnect(config_.address, kConnectTimeoutSeconds);
  socket_->set_recv_timeout_seconds(config_.recv_timeout_seconds);
  Channel* wire = socket_.get();
  if (injector_.has_value()) {
    faulty_ = std::make_unique<FaultInjectingChannel>(*socket_, *injector_);
    wire = faulty_.get();
  }
  framed_ = std::make_unique<FramedChannel>(*wire);
  obs::TraceSpan span("serve.client.handshake");
  uint64_t status;
  try {
    ClientHello hello;
    if (config_.enable_resume) hello.ticket = ticket_;
    SendClientHello(*framed_, hello);
    status = framed_->RecvU64();
  } catch (const ChannelError&) {
    // A reject-and-close can race our hello mid-send. The server's status
    // frame may already be waiting; read it so a shed surfaces as kBusy
    // (retryable) instead of "server dead". If the connection is truly
    // gone this recv throws ChannelError again.
    status = framed_->RecvU64();
  }
  if (status == static_cast<uint64_t>(ReplyStatus::kBusy)) {
    throw ServerBusyError("serve client: server is saturated, backing off");
  }
  if (status == static_cast<uint64_t>(ReplyStatus::kResumed)) {
    // Ticket hit: the server restored our session's snapshot, so we rewind
    // to the matching client state. No setup and no base OTs follow — only
    // the rotated ticket (the presented one is spent).
    if (ticket_.empty() || !snapshot_.has_value()) {
      throw ProtocolError("serve client: unsolicited resume");
    }
    ticket_ = RecvTicketFrame(*framed_);
    RestoreSnapshot();
    ++resumes_;
    static obs::Counter& resumed = obs::GetCounter("serve.client.resumes");
    resumed.Add();
    // Every turn of ours ended in a Recv, so no flight is left unsent.
    PAFS_CHECK_EQ(framed_->pending_bytes(), 0u);
    open_ = true;
    return;
  }
  if (status != static_cast<uint64_t>(ReplyStatus::kOk)) {
    throw ProtocolError("serve client: server refused the session");
  }
  SessionSetup setup = RecvSessionSetup(*framed_);
  for (int f : setup.plan_features) {
    if (f < 0 || f >= static_cast<int>(setup.features.size())) {
      throw ProtocolError("serve client: plan feature out of schema");
    }
  }
  driver_ = std::make_unique<EvaluatorDriver>(std::move(setup));
  // A new server session means new base OTs: the old extension state is
  // bound to the dead session's sender. Same for OT pads: the pool's
  // entries pair with the dead session's sender stream, so a fresh session
  // starts from an empty pool (the first query's refill warms it). The
  // pool mirrors the server's: present exactly when the announced depth is.
  ot_ = OtExtReceiver();
  ot_.Setup(*framed_, rng_);
  const int pool_depth = driver_->setup().ot_pool_depth;
  if (pool_depth > 0) {
    ot_pads_ =
        std::make_unique<OtReceiverPadPool>(static_cast<size_t>(pool_depth));
  } else {
    ot_pads_.reset();
  }
  // The ticket frame closes the fresh handshake; empty means the server
  // runs with resumption disabled.
  ticket_ = RecvTicketFrame(*framed_);
  if (!config_.enable_resume) ticket_.clear();
  // Fresh session: query ids restart and the snapshot pairs with the
  // server's post-handshake cache entry.
  next_query_id_ = 1;
  if (ticket_.empty()) {
    ForgetResumeState();
  } else {
    SnapshotState();
  }
  PAFS_CHECK_EQ(framed_->pending_bytes(), 0u);
  open_ = true;
}

void ClassificationClient::SnapshotState() {
  obs::TraceSpan span("serve.snapshot");
  if (!snapshot_.has_value()) snapshot_.emplace();
  snapshot_->ot = ot_;  // Assigns into the previous copy's storage.
  snapshot_->rng = rng_;
  snapshot_->ot_pads =
      ot_pads_ != nullptr ? ot_pads_->snapshot() : OtReceiverPadPool::State();
  snapshot_->next_query_id = next_query_id_;
}

void ClassificationClient::RestoreSnapshot() {
  ot_ = snapshot_->ot;
  rng_ = snapshot_->rng;
  // OT pads are covered by the snapshot (the pool was snapshot after the
  // refill), so a replayed retry re-spends the exact pads the transcript's
  // corrections were computed from. The pool itself exists or not as the
  // session's setup decided, which a resume keeps.
  if (ot_pads_ != nullptr) ot_pads_->Restore(snapshot_->ot_pads);
  next_query_id_ = snapshot_->next_query_id;
}

void ClassificationClient::ForgetResumeState() {
  ticket_.clear();
  snapshot_.reset();
}

void ClassificationClient::DropConnection() noexcept { Abandon(); }

void ClassificationClient::Abandon() noexcept {
  open_ = false;
  if (!socket_) return;
  try {
    socket_->Close();
  } catch (...) {
    // The session is being discarded; a close fault changes nothing.
  }
}

void ClassificationClient::BackoffOrRethrow(int attempt,
                                            double elapsed_seconds) {
  // Only callable from a catch handler: the bare `throw` below re-raises
  // the fault that brought us here once the retry budget is spent.
  const RetryPolicy& retry = config_.retry;
  if (attempt >= retry.max_attempts) throw;
  if (retry.deadline_seconds > 0 && elapsed_seconds >= retry.deadline_seconds) {
    throw;
  }
  double backoff = retry.initial_backoff_seconds;
  for (int i = 1; i < attempt; ++i) {
    backoff = std::min(backoff * 2, retry.max_backoff_seconds);
  }
  double jitter = 1.0 + kRetryJitterFraction * (2 * rng_.NextDouble() - 1);
  double sleep_seconds = std::max(0.0, backoff * jitter);
  if (retry.deadline_seconds > 0) {
    sleep_seconds = std::min(
        sleep_seconds, std::max(0.0, retry.deadline_seconds - elapsed_seconds));
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(sleep_seconds));
}

void ClassificationClient::WithRetry(const std::function<void()>& op) {
  Timer deadline;
  for (int attempt = 1;; ++attempt) {
    try {
      if (!open_) {
        ConnectOnce();
        if (op) {
          ++reconnects_;
          static obs::Counter& reconnects = obs::GetCounter("serve.reconnects");
          reconnects.Add();
        }
      }
      if (op) op();
      return;
    } catch (const TransportError&) {
      Abandon();
      BackoffOrRethrow(attempt, deadline.ElapsedSeconds());
      if (op) {
        ++retries_;
        static obs::Counter& retried = obs::GetCounter("serve.client.retries");
        retried.Add();
      }
    }
  }
}

void ClassificationClient::CheckRow(const std::vector<int>& row) const {
  const std::vector<FeatureSpec>& features = setup().features;
  PAFS_CHECK_EQ(row.size(), features.size());
  for (size_t f = 0; f < row.size(); ++f) {
    PAFS_CHECK_GE(row[f], 0);
    PAFS_CHECK_LT(row[f], features[f].cardinality);
  }
}

int ClassificationClient::Classify(const std::vector<int>& row) {
  return ClassifyWithStats(row).predicted_class;
}

SmcRunStats ClassificationClient::ClassifyWithStats(
    const std::vector<int>& row) {
  SmcRunStats stats;
  ClassifyBatch({row}, &stats);
  return stats;
}

std::vector<int> ClassificationClient::ClassifyBatch(
    const std::vector<std::vector<int>>& rows, SmcRunStats* stats) {
  PAFS_CHECK_MSG(!finished_, "ClassifyBatch on a closed client");
  for (const std::vector<int>& row : rows) CheckRow(row);
  SmcRunStats total;
  std::vector<int> preds;
  preds.reserve(rows.size());
  for (size_t begin = 0; begin < rows.size();) {
    WithRetry([&] {
      // The cap is read per attempt: a reconnect may meet a restarted
      // server that announced another one.
      const size_t end = std::min(
          rows.size(), begin + static_cast<size_t>(setup().batch_max_records));
      RunOnce({rows.begin() + begin, rows.begin() + end}, &preds, &total);
      begin = end;
    });
  }
  if (stats != nullptr) *stats = total;
  return preds;
}

void ClassificationClient::RunOnce(const std::vector<std::vector<int>>& rows,
                                   std::vector<int>* preds,
                                   SmcRunStats* stats) {
  obs::TraceSpan span(rows.size() == 1 ? "serve.client.query"
                                       : "serve.client.batch");
  Timer timer;
  const ChannelStats& wire = socket_->stats();
  const uint64_t bytes_before = wire.bytes_sent + wire.bytes_received;
  const uint64_t rounds_before = wire.direction_flips;
  Channel& ch = *framed_;
  ch.SendU64(static_cast<uint64_t>(RequestTag::kBatch));
  // The id makes retries idempotent: a resend of an already-executed id is
  // answered from the server's reply cache, never executed twice.
  ch.SendU64(next_query_id_);
  ch.SendU64(static_cast<uint64_t>(rows.size()));
  {
    obs::TraceSpan disclose("disclose");
    for (const std::vector<int>& row : rows) {
      for (int f : setup().plan_features) {
        ch.SendU64(static_cast<uint64_t>(row[f]));
      }
    }
  }
  RecvAdmissionAck(ch);
  EvaluatorResult result =
      driver_->Run(ch, rows, EvaluatorSession{ot_, ot_pads_.get()});
  // The lockstep refill: its columns ride ahead of the completion ack,
  // before the commit point so the snapshot below covers the refilled pool.
  RefillReceiverPads(ch, ot_, rng_, ot_pads_.get());
  RecvCompletionAck(ch);
  stats->bytes += wire.bytes_sent + wire.bytes_received - bytes_before;
  stats->rounds += wire.direction_flips - rounds_before;
  stats->wall_seconds += timer.ElapsedSeconds();
  stats->and_gates += result.and_gates;
  stats->predicted_class = result.classes.back();
  ++next_query_id_;
  // Checkpoint post-success state: a reconnect-with-ticket rewinds here,
  // exactly matching the server's refreshed cache entry.
  if (!ticket_.empty()) SnapshotState();
  preds->insert(preds->end(), result.classes.begin(), result.classes.end());
  // The completion ack was our last Recv: nothing we sent is still held.
  PAFS_CHECK_EQ(framed_->pending_bytes(), 0u);
}

void ClassificationClient::RecvAdmissionAck(Channel& ch) {
  // The server read the request and a worker is running it (kOk), or
  // admission control shed it (kBusy) and the retry loop should back off
  // and reconnect.
  uint64_t status = ch.RecvU64();
  if (status == static_cast<uint64_t>(ReplyStatus::kBusy)) {
    throw ServerBusyError("serve client: request shed, server saturated");
  }
  if (status == static_cast<uint64_t>(ReplyStatus::kResync)) {
    // The server executed this id but its replay transcript is gone. Drop
    // every piece of resume state so the retry builds a fresh session
    // (query ids restart at 1); requests are pure, so re-running one on a
    // fresh session cannot double-apply anything.
    ForgetResumeState();
    next_query_id_ = 1;
    throw ChannelError(ChannelErrorKind::kClosed,
                       "serve client: replay state lost, resyncing");
  }
  if (status == static_cast<uint64_t>(ReplyStatus::kCancelled)) {
    throw ChannelError(ChannelErrorKind::kCancelled,
                       "serve client: request cancelled by server watchdog");
  }
  if (status != static_cast<uint64_t>(ReplyStatus::kOk)) {
    throw ProtocolError("serve client: malformed admission ack");
  }
}

void ClassificationClient::RecvCompletionAck(Channel& ch) {
  // The commit point. Until this frame arrives the request is not done
  // client-side, so a connection lost here leaves the client one request
  // *behind* the server and the retry of the same id is served as a
  // replay. (Committing on our final protocol send instead would let a
  // dropped send commit the client ahead of the server — unresolvable.)
  uint64_t status = ch.RecvU64();
  if (status == static_cast<uint64_t>(ReplyStatus::kCancelled)) {
    throw ChannelError(ChannelErrorKind::kCancelled,
                       "serve client: request cancelled by server watchdog");
  }
  if (status != static_cast<uint64_t>(ReplyStatus::kOk)) {
    throw ProtocolError("serve client: malformed completion ack");
  }
}

void ClassificationClient::Ping() {
  PAFS_CHECK_MSG(!finished_, "Ping on a closed client");
  if (!open_) {
    throw ChannelError(ChannelErrorKind::kClosed,
                       "serve client: ping on a faulted session");
  }
  obs::TraceSpan span("serve.client.ping");
  framed_->SendU64(static_cast<uint64_t>(RequestTag::kPing));
  uint64_t status = framed_->RecvU64();
  if (status != static_cast<uint64_t>(ReplyStatus::kPong)) {
    throw ProtocolError("serve client: malformed pong");
  }
}

void ClassificationClient::Close() {
  finished_ = true;
  if (!open_) return;
  open_ = false;
  try {
    framed_->SendU64(static_cast<uint64_t>(RequestTag::kBye));
    framed_->Flush();  // No Recv follows the bye to carry it out.
  } catch (...) {
    // The server may already be gone; close is still graceful on our side.
  }
  try {
    socket_->Close();
  } catch (...) {
    // Already tearing down.
  }
}

}  // namespace pafs::serve
