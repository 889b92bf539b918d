#include "serve/server.h"

#include <sys/epoll.h>
#include <sys/socket.h>

#include <algorithm>
#include <chrono>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "net/error.h"
#include "net/framing.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/serial.h"
#include "util/timer.h"

namespace pafs::serve {

namespace {

// Event-loop tokens: the listener, then the reaper tick; sessions use
// their nonzero ids (which count up from 1 and can never reach the
// reserved high values — the loop's own wake token is ~0ull).
constexpr uint64_t kListenerToken = 0;
constexpr uint64_t kReaperToken = ~0ull - 1;
constexpr uint64_t kWatchdogToken = ~0ull - 2;

// Reads a request's records after its query id: kBatch sends a count
// (1..max_records) first, kQuery is one record with no count frame. Each
// record is its disclosure values in plan order, range-checked.
std::vector<std::vector<int>> RecvRequest(Channel& ch,
                                          const SessionSetup& setup,
                                          bool batch, int max_records) {
  uint64_t count = 1;
  if (batch) {
    count = ch.RecvU64();
    if (count == 0 || count > static_cast<uint64_t>(max_records)) {
      throw ProtocolError("serve: batch count " + std::to_string(count) +
                          " out of range (max " +
                          std::to_string(max_records) + ")");
    }
  }
  std::vector<std::vector<int>> keys(count);
  for (std::vector<int>& key : keys) {
    for (int f : setup.plan_features) {
      uint64_t v = ch.RecvU64();
      if (v >= static_cast<uint64_t>(setup.features[f].cardinality)) {
        throw ProtocolError("serve: disclosed value " + std::to_string(v) +
                            " out of range for " + setup.features[f].name);
      }
      key.push_back(static_cast<int>(v));
    }
  }
  return keys;
}

// Best-effort typed reject: one nonblocking write of a whole CRC frame
// carrying `status`, straight on the fd. Used from the acceptor/event-loop
// thread, which must never block on a peer's full socket buffer — if the
// 16 bytes don't fit (a peer that has stopped reading), the close alone
// tells the story and the client fails kClosed instead of kBusy.
void TrySendStatusFrame(int fd, ReplyStatus status) {
  // Drain whatever the peer already sent (its hello or shed request):
  // unread bytes at close would turn the close into a TCP RST, which
  // destroys the status frame in the peer's receive buffer before it can
  // be read. Nonblocking, so bounded by the kernel receive buffer.
  uint8_t scratch[512];
  while (::recv(fd, scratch, sizeof(scratch), MSG_DONTWAIT) > 0) {
  }
  uint8_t frame[16];
  uint8_t* payload = frame + 8;
  uint64_t value = static_cast<uint64_t>(status);
  for (int i = 0; i < 8; ++i) {
    payload[i] = static_cast<uint8_t>(value >> (8 * i));
  }
  uint32_t len = 8;
  uint32_t crc = Crc32(payload, 8);
  for (int i = 0; i < 4; ++i) {
    frame[i] = static_cast<uint8_t>(len >> (8 * i));
    frame[4 + i] = static_cast<uint8_t>(crc >> (8 * i));
  }
  (void)::send(fd, frame, sizeof(frame), MSG_NOSIGNAL | MSG_DONTWAIT);
}

// Decorator that records every payload crossing the session's framed
// channel during one query into a QueryTranscript, so a retry of that
// query id can be answered byte-for-byte without re-running the protocol
// (re-running would advance the session's OT/RNG streams a second time and
// desynchronize them from the client's). Recording is capped: a query
// bigger than the cap simply keeps no transcript, and its retry is
// answered with kResync instead.
class RecordingChannel final : public Channel {
 public:
  RecordingChannel(Channel& inner, QueryTranscript* transcript,
                   uint64_t max_bytes)
      : inner_(inner), transcript_(transcript), max_bytes_(max_bytes) {
    // Protocol code calls ThrowIfCancelled on the channel it was handed
    // (us), so mirror the session token the framed channel carries.
    Channel::set_cancellation_token(inner.cancellation_token());
  }

  void Send(const uint8_t* data, size_t n) override {
    Record(/*is_send=*/true, data, n);
    inner_.Send(data, n);
  }
  void Recv(uint8_t* data, size_t n) override {
    inner_.Recv(data, n);
    Record(/*is_send=*/false, data, n);
  }
  void Close() override { inner_.Close(); }
  bool closed() const override { return inner_.closed(); }
  const ChannelStats& stats() const override { return inner_.stats(); }

  bool overflowed() const { return overflowed_; }

 private:
  void Record(bool is_send, const uint8_t* data, size_t n) {
    if (overflowed_) return;
    if (transcript_->total_bytes + n > max_bytes_) {
      overflowed_ = true;
      transcript_->ops.clear();
      transcript_->total_bytes = 0;
      return;
    }
    transcript_->ops.push_back({is_send, std::vector<uint8_t>(data, data + n)});
    transcript_->total_bytes += n;
  }

  Channel& inner_;
  QueryTranscript* transcript_;
  uint64_t max_bytes_;
  bool overflowed_ = false;
};

}  // namespace

ClassificationServer::Session::Session(uint64_t id,
                                       std::unique_ptr<SocketChannel> sock,
                                       uint64_t seed,
                                       const PrecomputeConfig& pads)
    : id(id),
      socket(std::move(sock)),
      framed(std::make_unique<FramedChannel>(*socket)),
      rng(seed ^ (id * 0x9E3779B97F4A7C15ull)),
      last_activity(std::chrono::steady_clock::now()),
      // Distinct stream from the protocol rng: garbling seeds drawn by fillers
      // must never perturb the protocol's deterministic draw sequence.
      precompute(pads, seed ^ (id * 0xA24BAED4963EE407ull)) {
  // Arm the whole channel stack with this session's token: the watchdog
  // cancels a wedged worker by firing it, and the socket's readiness
  // slices observe it within ~100 ms even while blocked.
  framed->set_cancellation_token(&cancel);
}

ClassificationServer::ClassificationServer(ServingModel model,
                                           ServerConfig config)
    : model_(std::move(model)),
      config_(std::move(config)),
      driver_(model_, model_.setup.plan_features) {
  config_.num_threads =
      config_.num_threads > 0
          ? config_.num_threads
          : static_cast<int>(std::thread::hardware_concurrency());
  config_.num_threads = std::max(config_.num_threads, 2);
  config_.max_sessions = std::max(config_.max_sessions, 1);
  config_.recv_timeout_seconds = std::max(config_.recv_timeout_seconds, 1e-3);
  config_.max_pending_queries = std::max(config_.max_pending_queries, 0);
  config_.idle_timeout_seconds = std::max(config_.idle_timeout_seconds, 0.0);
  config_.resume_cache_entries = std::max(config_.resume_cache_entries, 0);
  config_.resume_ticket_ttl_seconds =
      std::max(config_.resume_ticket_ttl_seconds, 0.0);
  config_.query_budget_seconds = std::max(config_.query_budget_seconds, 0.0);
  if (config_.resume_cache_entries == 0 || ResumeDisabledByEnv()) {
    config_.enable_resumption = false;
  }
  config_.gc_pool_depth = std::max(config_.gc_pool_depth, 0);
  config_.gc_pool_max_keys = std::max(config_.gc_pool_max_keys, 1);
  config_.ot_pool_depth = std::max(config_.ot_pool_depth, 0);
  config_.batch_max_records = std::max(config_.batch_max_records, 1);
  if ((config_.gc_pool_depth == 0 && config_.ot_pool_depth == 0) ||
      PoolsDisabledByEnv()) {
    config_.enable_pools = false;
  }
  if (config_.enable_resumption) {
    // Tickets must be unguessable, so the ticket PRG is seeded from OS
    // entropy, never from the deterministic config seed.
    std::random_device rd;
    auto word = [&rd] {
      return (static_cast<uint64_t>(rd()) << 32) | static_cast<uint64_t>(rd());
    };
    ticket_prg_.emplace(Block(word(), word()));
  }
}

ClassificationServer::~ClassificationServer() { Stop(); }

void ClassificationServer::Start() {
  PAFS_CHECK(!running_);
  listener_.emplace(
      SocketListener::Listen(config_.address, config_.listen_backlog));
  loop_ = std::make_unique<EventLoop>();
  pool_ = std::make_unique<ThreadPool>(config_.num_threads + 1);
  loop_->Add(listener_->fd(), kListenerToken, EPOLLIN, /*oneshot=*/false,
             [this](uint32_t) { OnListenerReadable(); });
  if (config_.idle_timeout_seconds > 0) {
    // Tick a few times per timeout so a reap lands within ~1.25x of it;
    // the tick is bounded below so a tiny test timeout cannot busy-spin
    // the loop and above so a long timeout still reaps promptly.
    double tick = std::clamp(config_.idle_timeout_seconds / 4.0, 0.01, 1.0);
    loop_->AddTimer(kReaperToken, tick, [this] { ReapIdleSessions(); });
  }
  if (config_.query_budget_seconds > 0) {
    // Watchdog: same tick rationale as the reaper — a budget overrun is
    // cancelled within ~1.25x of the budget.
    double tick = std::clamp(config_.query_budget_seconds / 4.0, 0.01, 1.0);
    loop_->AddTimer(kWatchdogToken, tick, [this] { CancelOverdueQueries(); });
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    running_ = true;
    draining_ = false;
    stop_fill_.store(false, std::memory_order_relaxed);
  }
  loop_thread_ = std::thread([this] {
    obs::SetThreadParty("server");
    loop_->Run();
  });
}

const SocketAddress& ClassificationServer::address() const {
  PAFS_CHECK(listener_.has_value());
  return listener_->local_address();
}

ServerStats ClassificationServer::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

bool ClassificationServer::running() const {
  std::lock_guard<std::mutex> lock(mu_);
  return running_;
}

void ClassificationServer::OnListenerReadable() {
  for (;;) {
    std::unique_ptr<SocketChannel> socket;
    try {
      socket = listener_->TryAccept();
    } catch (const TransportError&) {
      return;  // Listener closed under us mid-drain.
    }
    if (socket == nullptr) return;
    AdmitSession(std::move(socket));
  }
}

void ClassificationServer::AdmitSession(std::unique_ptr<SocketChannel> socket) {
  std::shared_ptr<Session> session;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (draining_ ||
        static_cast<int>(sessions_.size()) >= config_.max_sessions) {
      ++stats_.sessions_rejected;
      static obs::Counter& rejected =
          obs::GetCounter("serve.sessions_rejected");
      rejected.Add();
      // Typed refusal: the client's hello is answered with kBusy so it can
      // back off and retry instead of reading "server dead" into the close.
      TrySendStatusFrame(socket->fd(), ReplyStatus::kBusy);
      socket->Close();  // Destructor closes the fd; the client fails typed.
      return;
    }
    uint64_t id = next_session_id_++;
    socket->set_recv_timeout_seconds(config_.recv_timeout_seconds);
    PrecomputeConfig pads;
    pads.enabled = config_.enable_pools;
    pads.gc_depth = config_.gc_pool_depth;
    pads.gc_max_keys = config_.gc_pool_max_keys;
    pads.ot_pads = config_.ot_pool_depth;
    session =
        std::make_shared<Session>(id, std::move(socket), config_.seed, pads);
    sessions_.emplace(id, session);
    ++stats_.sessions_accepted;
    stats_.sessions_active = static_cast<int>(sessions_.size());
    static obs::Counter& accepted = obs::GetCounter("serve.sessions_accepted");
    accepted.Add();
    static obs::Histogram& active = obs::GetHistogram("serve.sessions_active");
    active.Record(static_cast<double>(sessions_.size()));
  }
  uint64_t id = session->id;
  loop_->Add(session->socket->fd(), id, EPOLLIN | EPOLLRDHUP,
             /*oneshot=*/true, [this, id](uint32_t) { OnSessionReadable(id); });
}

void ClassificationServer::OnSessionReadable(uint64_t id) {
  std::shared_ptr<Session> session;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = sessions_.find(id);
    if (it == sessions_.end()) return;  // Already closed.
    session = it->second;
    if (draining_) {
      CloseSessionLocked(session, /*failed=*/false);
      return;
    }
    // Admission control: shed instead of queueing unboundedly. busy_
    // counts submit-to-completion, so busy_ - num_threads bounds the
    // number of tasks waiting for a worker.
    if (config_.max_pending_queries > 0 &&
        busy_ >= config_.num_threads + config_.max_pending_queries) {
      ++stats_.queries_shed;
      static obs::Counter& shed = obs::GetCounter("serve.queries_shed");
      shed.Add();
      // The request bytes stay unread (reading would need the worker we
      // do not have), so the session cannot be kept: answer kBusy in one
      // nonblocking write and close. The client reconnects with backoff.
      TrySendStatusFrame(session->socket->fd(), ReplyStatus::kBusy);
      CloseSessionLocked(session, /*failed=*/false);
      return;
    }
    session->state = SessionState::kBusy;
    ++busy_;
  }
  pool_->Submit([this, session] { ServeSession(session); });
}

void ClassificationServer::ReapIdleSessions() {
  std::vector<std::shared_ptr<Session>> victims;
  std::lock_guard<std::mutex> lock(mu_);
  auto now = std::chrono::steady_clock::now();
  auto limit = std::chrono::duration_cast<std::chrono::steady_clock::duration>(
      std::chrono::duration<double>(config_.idle_timeout_seconds));
  for (auto& [id, session] : sessions_) {
    if (session->state == SessionState::kBusy) continue;  // In flight.
    if (now - session->last_activity > limit) victims.push_back(session);
  }
  for (auto& session : victims) {
    ++stats_.sessions_reaped;
    static obs::Counter& reaped = obs::GetCounter("serve.sessions_reaped");
    reaped.Add();
    CloseSessionLocked(session, /*failed=*/false);
  }
}

void ClassificationServer::ServeSession(const std::shared_ptr<Session>& s) {
  obs::SetThreadParty("server");
  bool keep = true;
  bool failed = false;
  try {
    keep = ServeOne(*s);
  } catch (const ChannelError& e) {
    keep = false;
    failed = true;
    if (e.kind() == ChannelErrorKind::kCancelled) {
      // The watchdog fired this session's token and the worker unwound
      // mid-protocol. The socket is still healthy (cancellation never
      // closes it), so the peer gets a typed kCancelled frame before the
      // close instead of having to read tea leaves from a reset.
      TrySendStatusFrame(s->socket->fd(), ReplyStatus::kCancelled);
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.queries_cancelled;
      }
      static obs::Counter& cancelled =
          obs::GetCounter("serve.queries_cancelled");
      cancelled.Add();
    }
  } catch (const TransportError&) {
    keep = false;
    failed = true;
  }
  bool schedule_fill = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    s->in_query = false;
    --busy_;
    if (keep && !draining_ && !s->socket->closed()) {
      s->state = SessionState::kIdle;
      s->last_activity = std::chrono::steady_clock::now();
      loop_->Rearm(s->socket->fd(), s->id);
      // The session just went idle: hand its precompute deficit to a
      // filler task. fillers_ is bumped in the same critical section that
      // dropped busy_, so the drain's busy_+fillers_ accounting never has
      // a gap; the Submit itself happens outside mu_ (same rationale as
      // OnSessionReadable).
      OtSenderPadPool* ot_pads = s->precompute.ot_pads();
      if (config_.enable_pools && !s->filling &&
          !stop_fill_.load(std::memory_order_relaxed) &&
          (s->precompute.NeedsRefill() ||
           (ot_pads != nullptr && ot_pads->HasPending()))) {
        s->filling = true;
        ++fillers_;
        schedule_fill = true;
      }
    } else {
      CloseSessionLocked(s, failed);
    }
    drain_cv_.notify_all();
  }
  if (schedule_fill) {
    pool_->Submit([this, s] { FillerStep(s); });
  }
}

void ClassificationServer::FillerStep(const std::shared_ptr<Session>& s) {
  obs::SetThreadParty("server");
  // The garbles run outside every lock; the pools' internal locks keep an
  // overlapping query's TryTake safe, and the single-filler invariant
  // (Session::filling) keeps the fill rng race-free.
  size_t added = s->precompute.RefillStep(&stop_fill_);
  // Materialize parked OT columns — the other half of the offline work.
  // try_lock only: the OT stream belongs to a live query when ot_mu is
  // held, and that query materializes at its own start anyway.
  size_t ot_added = 0;
  OtSenderPadPool* ot_pads = s->precompute.ot_pads();
  if (ot_pads != nullptr && ot_pads->HasPending() &&
      !stop_fill_.load(std::memory_order_relaxed)) {
    std::unique_lock<std::mutex> ot_lock(s->ot_mu, std::try_to_lock);
    if (ot_lock.owns_lock()) ot_added = ot_pads->Materialize(s->ot);
  }
  bool again = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.gc_pregarbled += added;
    stats_.ot_pads_precomputed += ot_added;
    // Keep going only while the session is still registered and idle: a
    // query in flight reschedules its own filler when it finishes, and a
    // closed or draining session has no future to precompute for.
    again = (added + ot_added) > 0 && !draining_ &&
            !stop_fill_.load(std::memory_order_relaxed) &&
            sessions_.count(s->id) > 0 &&
            s->state == SessionState::kIdle && s->precompute.NeedsRefill();
    if (!again) {
      s->filling = false;
      --fillers_;
    }
  }
  if (added + ot_added > 0) {
    static obs::Counter& filled = obs::GetCounter("serve.pool.pads_filled");
    filled.Add(added + ot_added);
  }
  if (again) {
    pool_->Submit([this, s] { FillerStep(s); });
  } else {
    drain_cv_.notify_all();
  }
}

bool ClassificationServer::ServeOne(Session& s) {
  Channel& ch = *s.framed;
  if (!s.handshaken) {
    obs::TraceSpan span("serve.handshake");
    uint64_t magic = ch.RecvU64();
    uint64_t version = ch.RecvU64();
    if (magic != kWireMagic || version != kWireVersion) {
      // Typed refusal before the close.
      ch.SendU64(static_cast<uint64_t>(ReplyStatus::kRejected));
      throw ProtocolError("serve: bad hello (magic " + std::to_string(magic) +
                          ", version " + std::to_string(version) + ")");
    }
    std::vector<uint8_t> ticket = ch.RecvBytes();
    if (!ticket.empty() && ticket.size() != kResumeTicketBytes) {
      ch.SendU64(static_cast<uint64_t>(ReplyStatus::kRejected));
      throw ProtocolError("serve: hello ticket is " +
                          std::to_string(ticket.size()) +
                          " bytes, expected 0 or " +
                          std::to_string(kResumeTicketBytes));
    }
    if (!ticket.empty() && TryResumeSession(s, ticket)) {
      // Ticket hit: the session's crypto state is restored, so no setup
      // and no base OTs follow — only a fresh (rotated) ticket.
      ch.SendU64(static_cast<uint64_t>(ReplyStatus::kResumed));
      IssueTicket(s, ch);
    } else {
      // Fresh session, or a ticket that expired/was evicted/was forged:
      // transparently degrade to the full handshake. The base OTs run
      // before the ticket so its snapshot holds a ready OT stream.
      ch.SendU64(static_cast<uint64_t>(ReplyStatus::kOk));
      SendSessionSetup(ch, model_.setup);
      s.ot.Setup(ch, s.rng);
      IssueTicket(s, ch);
    }
    s.handshaken = true;
    s.state = SessionState::kIdle;
    return true;
  }
  uint64_t tag = ch.RecvU64();
  if (tag == static_cast<uint64_t>(RequestTag::kBye)) return false;
  if (tag == static_cast<uint64_t>(RequestTag::kPing)) {
    // Keepalive: answer and go idle, which refreshes last_activity.
    ch.SendU64(static_cast<uint64_t>(ReplyStatus::kPong));
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.pings_served;
    }
    static obs::Counter& pings = obs::GetCounter("serve.pings_served");
    pings.Add();
    return true;
  }
  if (tag != static_cast<uint64_t>(RequestTag::kQuery) &&
      tag != static_cast<uint64_t>(RequestTag::kBatch)) {
    throw ProtocolError("serve: unknown request tag " + std::to_string(tag));
  }
  ServeQuery(s, ch, tag == static_cast<uint64_t>(RequestTag::kBatch));
  return true;
}

void ClassificationServer::ServeQuery(Session& s, Channel& ch, bool batch) {
  obs::TraceSpan span("serve.query");
  // At-most-once state machine on the client-stamped query id:
  //   id == next      -> execute live (and record the transcript),
  //   id == next - 1  -> a retry of the request we already executed; replay
  //                      the recorded reply, or kResync if it is gone,
  //   anything else   -> the peer is out of step beyond what retries can
  //                      produce; fail the session typed.
  uint64_t query_id = ch.RecvU64();
  if (query_id == s.next_query_id) {
    ExecuteRequest(s, ch, query_id, batch);
    return;
  }
  if (query_id + 1 == s.next_query_id) {
    if (s.transcript != nullptr && s.transcript->query_id == query_id &&
        !s.transcript->ops.empty()) {
      ReplayQuery(ch, *s.transcript);
      return;
    }
    // The transcript is gone (the request overflowed max_replay_bytes).
    // Drain the retry's records off the wire, then answer kResync in the
    // admission slot: the client discards its resume state and rebuilds a
    // fresh session. The current session stays healthy.
    (void)RecvRequest(ch, model_.setup, batch, config_.batch_max_records);
    ch.SendU64(static_cast<uint64_t>(ReplyStatus::kResync));
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.resyncs;
    }
    static obs::Counter& resyncs = obs::GetCounter("serve.resyncs");
    resyncs.Add();
    return;
  }
  throw ProtocolError("serve: query id " + std::to_string(query_id) +
                      " out of step (expected " +
                      std::to_string(s.next_query_id) + ")");
}

void ClassificationServer::ExecuteRequest(Session& s, Channel& ch,
                                          uint64_t query_id, bool batch) {
  Timer timer;
  {
    // Arm the watchdog: from here until the final stanza this session is
    // cancellable if it exceeds query_budget_seconds.
    std::lock_guard<std::mutex> lock(mu_);
    s.in_query = true;
    s.query_start = std::chrono::steady_clock::now();
  }
  auto transcript = std::make_shared<QueryTranscript>();
  transcript->query_id = query_id;
  RecordingChannel rec(ch, transcript.get(), config_.max_replay_bytes);
  Channel& qch = rec;
  const std::vector<std::vector<int>> keys =
      RecvRequest(qch, model_.setup, batch, config_.batch_max_records);
  const size_t n = keys.size();
  // Admission ack: the request was read and a worker is running it. The
  // shed path answers the same slot in the conversation with kBusy, so a
  // client always learns its request's fate from this one frame.
  qch.SendU64(static_cast<uint64_t>(ReplyStatus::kOk));
  {
    // The protocol region owns the OT stream end to end (transfers, the
    // refill tail and the resume snapshot); any columns parked by a
    // previous refill must expand before the next transfer advances the
    // stream past them.
    std::lock_guard<std::mutex> ot_lock(s.ot_mu);
    OtSenderPadPool* ot_pads = s.precompute.ot_pads();
    if (ot_pads != nullptr && ot_pads->HasPending()) {
      size_t added = ot_pads->Materialize(s.ot);
      std::lock_guard<std::mutex> lock(mu_);
      stats_.ot_pads_precomputed += added;
    }
    // The outputs are the client's report: a forged class index fails the
    // session typed inside the driver.
    driver_.Run(qch, keys,
                GarblerSession{s.ot, s.rng, s.specs,
                               static_cast<size_t>(config_.gc_pool_max_keys),
                               s.precompute.gc_pool(), ot_pads});
    ServerOtRefillTail(s, qch);
    ++s.queries;
    s.next_query_id = query_id + 1;
    s.transcript = rec.overflowed() ? nullptr : transcript;
    // Refresh the snapshot (covering this request's OT/RNG advancement)
    // before the completion ack releases the client: an acked client may
    // instantly reconnect with the ticket and must hit the post-request
    // entry. The entry shares this transcript object, so the ack recorded
    // below is replayed too.
    RefreshResumeEntry(s);
  }
  // Completion ack — the client's commit point. Because the server commits
  // strictly first, its state is never *behind* the client's: a lost ack
  // leaves the server exactly one request ahead, which the retry of the
  // same id resolves as a replay, never as an out-of-step failure.
  qch.SendU64(static_cast<uint64_t>(ReplyStatus::kOk));
  {
    std::lock_guard<std::mutex> lock(mu_);
    s.in_query = false;
    ++stats_.queries_served;
    if (batch) {
      ++stats_.batches_served;
      stats_.batch_records += n;
    }
  }
  static obs::Counter& served = obs::GetCounter("serve.queries_served");
  static obs::Counter& batches = obs::GetCounter("serve.batches_served");
  static obs::Histogram& query_latency =
      obs::GetHistogram("serve.query.seconds");
  static obs::Histogram& batch_latency =
      obs::GetHistogram("serve.batch.seconds");
  served.Add();
  if (batch) batches.Add();
  (batch ? batch_latency : query_latency).Record(timer.ElapsedSeconds());
}

void ClassificationServer::ServerOtRefillTail(Session& s, Channel& ch) {
  // Every request ends with a receiver-driven refill negotiation: the
  // client asks for `wanted` random OTs, the server grants what its own
  // pad pool can absorb (both pools must grow in lockstep for the pooled
  // transfer to stay aligned). The grant only *receives* the IKNP columns
  // here — the expensive PRG expansion and transpose are parked for an
  // idle filler (OtSenderPadPool::Materialize). Caller holds s.ot_mu.
  uint64_t wanted = ch.RecvU64();
  OtSenderPadPool* pool = s.precompute.ot_pads();
  uint64_t granted = 0;
  if (wanted > 0 && pool != nullptr) {
    granted = std::min<uint64_t>(wanted, pool->Deficit());
    granted = std::min<uint64_t>(granted, uint64_t{1} << 16);
  }
  ch.SendU64(granted);
  if (granted > 0) {
    pool->AddPending(
        static_cast<size_t>(granted),
        s.ot.ReceiveRandomColumns(ch, static_cast<size_t>(granted)));
  }
}

void ClassificationServer::ReplayQuery(Channel& ch,
                                       const QueryTranscript& transcript) {
  obs::TraceSpan span("serve.replay");
  // Drive the recorded conversation: our sends verbatim, the peer's sends
  // checked byte-for-byte. A retry of the same query from the same client
  // snapshot is deterministic, so any divergence means the peer is not
  // replaying what it claims to be — fail the session typed.
  for (const QueryTranscript::Op& op : transcript.ops) {
    if (op.is_send) {
      ch.Send(op.bytes.data(), op.bytes.size());
      continue;
    }
    std::vector<uint8_t> got(op.bytes.size());
    if (!got.empty()) ch.Recv(got.data(), got.size());
    if (got != op.bytes) {
      throw ProtocolError("serve: replay divergence on query " +
                          std::to_string(transcript.query_id));
    }
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.replay_hits;
  }
  static obs::Counter& hits = obs::GetCounter("serve.replay_hits");
  hits.Add();
}

bool ClassificationServer::TryResumeSession(Session& s,
                                            const std::vector<uint8_t>& ticket) {
  std::array<uint8_t, kResumeTicketBytes> key{};
  std::copy(ticket.begin(), ticket.end(), key.begin());
  std::lock_guard<std::mutex> lock(mu_);
  auto miss = [this] {
    ++stats_.resume_misses;
    static obs::Counter& misses = obs::GetCounter("serve.resume_misses");
    misses.Add();
    return false;
  };
  if (!config_.enable_resumption) return miss();
  auto it = resume_cache_.find(key);
  if (it == resume_cache_.end()) return miss();  // Evicted, replayed, forged.
  // Consume-on-use: hit or expired, a presented ticket is spent, so a
  // later replay of the same bytes cannot touch this state again.
  ResumeEntry entry = std::move(it->second);
  resume_cache_.erase(it);
  if (config_.resume_ticket_ttl_seconds > 0 &&
      std::chrono::steady_clock::now() - entry.stored_at >
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::duration<double>(
                  config_.resume_ticket_ttl_seconds))) {
    return miss();
  }
  s.ot = OtExtSender::Deserialize(entry.ot_state);
  ByteReader rng_reader(entry.rng_state);
  s.rng = Rng::Deserialize(rng_reader);
  if (!entry.precompute_state.empty()) {
    // Suspended pads come back with the session, so its first query after
    // resumption is as pooled as its last one before.
    ByteReader pre_reader(entry.precompute_state);
    s.precompute.Restore(pre_reader);
  }
  s.next_query_id = entry.next_query_id;
  s.queries = entry.queries;
  s.transcript = std::move(entry.transcript);
  ++stats_.resumptions;
  static obs::Counter& resumptions = obs::GetCounter("serve.resumptions");
  resumptions.Add();
  return true;
}

void ClassificationServer::IssueTicket(Session& s, Channel& ch) {
  if (!config_.enable_resumption) {
    // Empty frame: the client learns resumption is off and never retries
    // with a ticket.
    ch.SendBytes({});
    s.has_ticket = false;
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    Block lo = ticket_prg_->NextBlock();
    Block hi = ticket_prg_->NextBlock();
    lo.ToBytes(s.ticket.data());
    hi.ToBytes(s.ticket.data() + 16);
  }
  s.has_ticket = true;
  ch.SendBytes(std::vector<uint8_t>(s.ticket.begin(), s.ticket.end()));
  std::lock_guard<std::mutex> ot_lock(s.ot_mu);
  RefreshResumeEntry(s);
}

void ClassificationServer::RefreshResumeEntry(Session& s) {
  if (!s.has_ticket) return;
  ResumeEntry entry;
  entry.ot_state = s.ot.Serialize();
  ByteWriter rng_writer(&entry.rng_state);
  s.rng.Serialize(rng_writer);
  // The caller's ot_mu keeps a filler from materializing between the OT
  // and pad-pool serializations (it advances the OT stream, then appends
  // the pads). GC pads a filler pushes meanwhile are safe under the pool's
  // own lock; the entry captures whichever depth the fill had reached.
  ByteWriter pre_writer(&entry.precompute_state);
  s.precompute.Serialize(pre_writer);
  entry.next_query_id = s.next_query_id;
  entry.queries = s.queries;
  entry.transcript = s.transcript;
  entry.stored_at = std::chrono::steady_clock::now();
  std::lock_guard<std::mutex> lock(mu_);
  entry.lru_seq = ++resume_lru_seq_;
  resume_cache_[s.ticket] = std::move(entry);
  // Bounded cache: evict least-recently-refreshed. Linear scan is fine at
  // the configured sizes (hundreds to a few thousand entries).
  while (static_cast<int>(resume_cache_.size()) > config_.resume_cache_entries) {
    auto victim = resume_cache_.begin();
    for (auto it = resume_cache_.begin(); it != resume_cache_.end(); ++it) {
      if (it->second.lru_seq < victim->second.lru_seq) victim = it;
    }
    resume_cache_.erase(victim);
  }
}

void ClassificationServer::CancelOverdueQueries() {
  std::lock_guard<std::mutex> lock(mu_);
  auto now = std::chrono::steady_clock::now();
  auto budget = std::chrono::duration_cast<std::chrono::steady_clock::duration>(
      std::chrono::duration<double>(config_.query_budget_seconds));
  for (auto& [id, session] : sessions_) {
    if (!session->in_query) continue;
    if (now - session->query_start <= budget) continue;
    if (session->cancel.cancelled()) continue;  // Already signalled.
    // The worker observes the token at its next channel slice or explicit
    // checkpoint (<= ~100 ms) and unwinds with ChannelError{kCancelled};
    // ServeSession then sends the typed kCancelled frame and closes. Other
    // sessions are untouched — cancellation is per-token, not per-pool.
    session->cancel.Cancel();
  }
}

void ClassificationServer::CloseSessionLocked(
    const std::shared_ptr<Session>& session, bool failed) {
  auto it = sessions_.find(session->id);
  if (it == sessions_.end()) return;  // Double close (drain vs. task race).
  loop_->Remove(session->socket->fd(), session->id);
  sessions_.erase(it);
  ++stats_.sessions_closed;
  if (failed) ++stats_.sessions_failed;
  stats_.sessions_active = static_cast<int>(sessions_.size());
  if (failed) {
    static obs::Counter& failures = obs::GetCounter("serve.sessions_failed");
    failures.Add();
  }
  // Per-session wire-cost attribution (the whole-process net.* counters
  // cannot separate concurrent sessions): one histogram sample per session,
  // so --breakdown reports the distribution across sessions.
  const ChannelStats& wire = session->socket->stats();
  static obs::Histogram& sent = obs::GetHistogram("serve.session.bytes_sent");
  static obs::Histogram& received =
      obs::GetHistogram("serve.session.bytes_received");
  static obs::Histogram& rounds = obs::GetHistogram("serve.session.rounds");
  static obs::Histogram& queries = obs::GetHistogram("serve.session.queries");
  if (obs::Enabled() && wire.messages_sent + wire.messages_received > 0) {
    sent.Record(static_cast<double>(wire.bytes_sent));
    received.Record(static_cast<double>(wire.bytes_received));
    rounds.Record(static_cast<double>(wire.direction_flips));
    queries.Record(static_cast<double>(session->queries));
  }
  session->socket->Close();
}

void ClassificationServer::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!running_) return;
    draining_ = true;
    // Fillers poll this between passes, so the longest a drain waits on
    // background precompute is one garble.
    stop_fill_.store(true, std::memory_order_relaxed);
  }
  // Refuse new connects and take the listener out of the loop.
  loop_->Remove(listener_->fd(), kListenerToken);
  listener_->Close();
  // Close idle sessions immediately; busy ones get the drain grace.
  {
    std::unique_lock<std::mutex> lock(mu_);
    std::vector<std::shared_ptr<Session>> idle;
    for (auto& [id, session] : sessions_) {
      if (session->state != SessionState::kBusy) idle.push_back(session);
    }
    for (auto& session : idle) {
      CloseSessionLocked(session, /*failed=*/false);
    }
    drain_cv_.wait_for(
        lock,
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(config_.drain_timeout_seconds)),
        [&] { return busy_ == 0 && fillers_ == 0; });
    // Grace expired: force-close stragglers. Their blocking IO unwinds
    // with typed errors and the tasks finish promptly.
    for (auto& [id, session] : sessions_) session->socket->Close();
    drain_cv_.wait(lock, [&] { return busy_ == 0 && fillers_ == 0; });
    for (auto it = sessions_.begin(); it != sessions_.end();) {
      auto session = it->second;
      ++it;
      CloseSessionLocked(session, /*failed=*/false);
    }
    running_ = false;
  }
  // Join the loop thread before touching the pool: OnSessionReadable
  // bumps busy_ under the lock but calls Submit outside it, so the drain
  // can observe busy_ == 0 (the task already ran) while the loop thread
  // is still inside Submit signalling the pool's condvar. After the join
  // no such call can be in flight, and with busy_ == 0 there are no
  // queued session tasks either, so pool teardown is a plain join.
  loop_->Stop();
  loop_thread_.join();
  pool_.reset();
  loop_.reset();
  // The (closed) listener stays: address() remains answerable after Stop,
  // and Start() replaces it on a restart.
}

}  // namespace pafs::serve
