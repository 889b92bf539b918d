// Session-multiplexing secure-classification server.
//
// Architecture (see DESIGN.md "Transport & serving layer"):
//
//   acceptor thread ── epoll EventLoop ──> bounded session registry
//        │  (listener + every IDLE session socket)
//        └─ readable session ──> ThreadPool::Submit ──> session task:
//             handshake | one request (blocking secure protocol over the
//             framed socket) ──> re-arm in epoll and go idle, or close.
//
// A request is a query (one record) or a batch (N records); both run
// through the same executor, a query being the batch of one.
//
// A session occupies a worker thread only while a request is in flight;
// between requests it costs one epoll registration, so the server holds
// max_sessions connections while running num_threads protocols at a time.
// Every session socket runs under the CRC FramedChannel and a per-Recv
// deadline, so a wedged or malicious peer dies typed (ChannelError /
// ProtocolError), is counted in serve.sessions_failed, and never takes a
// worker hostage for longer than the deadline.
//
// State machine per session:
//
//   kAwaitHello --accept--> (registered, epoll-armed)
//   kAwaitHello --hello ok--> kIdle --request--> kBusy --done--> kIdle
//   kBusy --bye/fault/drain--> closed (unregistered, socket shut down)
//
// Stop() drains gracefully: new connects are refused, idle sessions close
// immediately, in-flight queries get drain_timeout_seconds to finish, then
// stragglers are force-closed (their tasks unwind with typed errors).
#ifndef PAFS_SERVE_SERVER_H_
#define PAFS_SERVE_SERVER_H_

#include <array>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "crypto/prg.h"
#include "net/cancel.h"
#include "net/event_loop.h"
#include "net/framing.h"
#include "net/socket.h"
#include "ot/iknp.h"
#include "serve/engine.h"
#include "serve/model.h"
#include "serve/precompute.h"
#include "util/parallel.h"

namespace pafs::serve {

struct ServerConfig {
  SocketAddress address = SocketAddress::Tcp("127.0.0.1", 0);
  // Bounded session registry: connects beyond this are answered with a
  // typed ReplyStatus::kBusy frame and closed, so clients can tell
  // "server full, back off" (ServerBusyError) from "server dead".
  int max_sessions = 256;
  // Session worker threads (>= 2 enforced); protocol work for at most this
  // many sessions runs concurrently. Distinct from ThreadPool::Global(),
  // which the garbling kernels keep for ParallelFor.
  int num_threads = 0;  // 0 = hardware concurrency.
  // Per-Recv deadline while serving a request; a silent peer mid-protocol
  // fails typed after this long. 0 would hang a worker forever, so the
  // config is clamped to >= 1 ms.
  double recv_timeout_seconds = 30;
  // Stop(): how long in-flight queries may run before force-close.
  double drain_timeout_seconds = 5;
  // Admission control: requests may wait for a worker only while fewer
  // than this many session tasks are queued beyond the ones running.
  // Excess readable sessions are shed with ReplyStatus::kBusy and closed
  // instead of queueing unboundedly (counted in queries_shed /
  // serve.queries_shed). 0 = unbounded (the pre-resilience behavior).
  int max_pending_queries = 1024;
  // Idle reaping: a session (handshaken or not) that stays silent this
  // long between requests is closed by the reaper tick and counted in
  // sessions_reaped / serve.sessions_reaped, so slow-loris peers cannot
  // hold registry slots forever. Clients keep long-lived sessions warm
  // with RequestTag::kPing. 0 = never reap.
  double idle_timeout_seconds = 300;
  int listen_backlog = 128;
  uint64_t seed = 0x5AFE5EED;  // Per-session RNG streams derive from this.
  // Session resumption (wire v3): the server snapshots each session's
  // crypto state (OT extension + RNG + query cursor) after the handshake
  // and after every completed query, keyed by an unguessable ticket. A
  // reconnecting client that presents the ticket restores the snapshot and
  // skips the base OTs entirely. Force-disabled by PAFS_NO_RESUME=1.
  bool enable_resumption = true;
  // Bounded LRU of suspended-session snapshots; 0 disables resumption.
  int resume_cache_entries = 1024;
  // Snapshots older than this are expired on lookup/sweep; 0 = no TTL.
  double resume_ticket_ttl_seconds = 600;
  // At-most-once replay: the per-session transcript of the last executed
  // query is kept up to this many bytes so a retried query id replays the
  // recorded reply instead of re-running the protocol. A query that
  // overflows the cap simply has no transcript (retry answers kResync and
  // the client falls back to a full re-handshake).
  uint64_t max_replay_bytes = 16ull << 20;
  // Watchdog: a worker still inside one query after this long is
  // cancelled via its session's CancellationToken (typed kCancelled to
  // the peer, pool slot freed deterministically). 0 disables.
  double query_budget_seconds = 0;
  // Offline/online split (DESIGN.md): idle workers pre-garble circuits and
  // expand OT pads per session between queries, so the online protocol
  // finds its input-independent material ready. PAFS_NO_POOL=1
  // force-disables.
  bool enable_pools = true;
  // Pre-garbled circuits kept per disclosure set per session (GcPool); a
  // warm entry removes the whole online Garble from a query's critical
  // path. 0 disables (falls back to online garbling).
  int gc_pool_depth = 2;
  // Distinct disclosure sets per session: the GcPool's LRU bound, and how
  // many tree/forest specs the session keeps (the first ones, never
  // evicted).
  int gc_pool_max_keys = kDefaultMaxSpecKeys;
  // Target depth of the per-session sender-side OT pad pool. Clients top
  // it up through the in-query refill tail; 0 disables.
  int ot_pool_depth = 4096;
  // Upper bound on records per RequestTag::kBatch request; larger batch
  // headers fail the session typed.
  int batch_max_records = 64;
};

// Registry/lifecycle counters, readable at any time (independent of the
// obs telemetry switch; the serve.* counters mirror these when enabled).
struct ServerStats {
  uint64_t sessions_accepted = 0;
  uint64_t sessions_rejected = 0;  // Refused typed: registry full/draining.
  uint64_t sessions_failed = 0;    // Died on a transport/protocol fault.
  uint64_t sessions_closed = 0;    // All closes, graceful included.
  uint64_t sessions_reaped = 0;    // Closed by the idle reaper.
  uint64_t queries_served = 0;
  uint64_t queries_shed = 0;  // Readable sessions shed: worker queue full.
  uint64_t pings_served = 0;
  uint64_t resumptions = 0;     // Hellos that restored a cached snapshot.
  uint64_t resume_misses = 0;   // Tickets presented but expired/evicted.
  uint64_t replay_hits = 0;     // Retried queries served from transcript.
  uint64_t resyncs = 0;         // Retries whose transcript was gone.
  uint64_t queries_cancelled = 0;  // Watchdog budget kills.
  uint64_t pool_pads_precomputed = 0;  // Always 0 since wire v5.
  uint64_t gc_pregarbled = 0;       // Circuits garbled offline by fillers.
  uint64_t ot_pads_precomputed = 0;  // Random OTs materialized offline.
  uint64_t batches_served = 0;       // kBatch requests executed live.
  uint64_t batch_records = 0;        // Records across those batches.
  int sessions_active = 0;
};

// Record of one executed query at framed-channel granularity: every Send
// payload verbatim, every Recv payload for divergence checking. Replaying
// it answers a retried query id byte-for-byte without re-running the
// protocol (and therefore without advancing any crypto stream).
struct QueryTranscript {
  struct Op {
    bool is_send = false;
    std::vector<uint8_t> bytes;
  };
  uint64_t query_id = 0;
  std::vector<Op> ops;
  uint64_t total_bytes = 0;
};

class ClassificationServer {
 public:
  ClassificationServer(ServingModel model, ServerConfig config);
  ~ClassificationServer();  // Stops (drains) if still running.

  ClassificationServer(const ClassificationServer&) = delete;
  ClassificationServer& operator=(const ClassificationServer&) = delete;

  // Binds the listener and launches the acceptor/event-loop thread.
  // Throws TransportError if the address cannot be bound.
  void Start();
  // Graceful drain + shutdown; idempotent, called by the destructor.
  void Stop();

  // Bound address; resolves an ephemeral TCP port. Valid after Start().
  const SocketAddress& address() const;
  ServerStats stats() const;
  bool running() const;

 private:
  enum class SessionState { kAwaitHello, kIdle, kBusy };

  struct Session {
    uint64_t id = 0;
    std::unique_ptr<SocketChannel> socket;
    std::unique_ptr<FramedChannel> framed;
    SessionState state = SessionState::kAwaitHello;
    bool handshaken = false;
    OtExtSender ot;  // Set up by the handshake, shared by every request.
    Rng rng;
    uint64_t queries = 0;
    // Last time the session finished a request (or was accepted); the
    // reaper closes non-busy sessions idle past idle_timeout_seconds.
    std::chrono::steady_clock::time_point last_activity;
    // Resumption: the ticket this session's snapshot is cached under
    // (rotated on every resume), the id the next query must carry, and
    // the transcript of the last executed query for replay.
    std::array<uint8_t, kResumeTicketBytes> ticket{};
    bool has_ticket = false;
    uint64_t next_query_id = 1;
    std::shared_ptr<QueryTranscript> transcript;
    // Watchdog: set while a worker is inside ServeQuery (mu_-guarded);
    // Cancel() makes the worker's next channel slice / checkpoint throw
    // ChannelError{kCancelled}.
    CancellationToken cancel;
    bool in_query = false;
    std::chrono::steady_clock::time_point query_start;
    // Offline material filled by idle workers between this session's
    // queries. `filling` (mu_-guarded) keeps at most one filler task alive
    // per session, which is what lets precompute's fill rng go lockless.
    SessionPrecompute precompute;
    bool filling = false;
    // OT stream exclusivity: the query task holds this for the whole
    // protocol region (every ot use plus the refill tail); the filler only
    // try_locks it to materialize pending pad batches, so background
    // expansion never interleaves with a live transfer.
    std::mutex ot_mu;
    // Tree/forest circuit specs per disclosure set: the first
    // gc_pool_max_keys sets stay cached, none is evicted.
    SpecMap specs;

    Session(uint64_t id, std::unique_ptr<SocketChannel> sock, uint64_t seed,
            const PrecomputeConfig& pads);
  };

  // A suspended session's restorable state, keyed by its ticket in the
  // resume cache. Holds serialized crypto state (snapshot taken after the
  // handshake and refreshed after every executed query) plus the last
  // query's transcript so a resumed retry can still replay.
  struct ResumeEntry {
    std::vector<uint8_t> ot_state;   // OtExtSender::Serialize.
    std::vector<uint8_t> rng_state;  // Rng::Serialize.
    // SessionPrecompute::Serialize — precomputed pads survive suspension,
    // so a resumed session's first query still runs pooled.
    std::vector<uint8_t> precompute_state;
    uint64_t next_query_id = 1;
    uint64_t queries = 0;
    std::shared_ptr<QueryTranscript> transcript;
    std::chrono::steady_clock::time_point stored_at;
    uint64_t lru_seq = 0;
  };

  void OnListenerReadable();
  void AdmitSession(std::unique_ptr<SocketChannel> socket);
  void OnSessionReadable(uint64_t id);
  // Reaper tick (event-loop thread): closes every non-busy session whose
  // last_activity is older than idle_timeout_seconds.
  void ReapIdleSessions();
  // Runs on a pool worker: one handshake or one request, then re-arm or
  // close. Never throws.
  void ServeSession(const std::shared_ptr<Session>& session);
  // One protocol exchange. Returns false when the session should close
  // gracefully (bye). Throws TransportError subclasses on faults.
  bool ServeOne(Session& session);
  // `batch` selects the kBatch body (a record count, then N records) over
  // kQuery (exactly one record, no count); the id state machine is shared.
  void ServeQuery(Session& session, Channel& channel, bool batch);
  // Runs a live request: its N records through one protocol exchange (one
  // OT extension matrix, one circuit prelude per distinct disclosure set,
  // pre-garbled circuits from the GC pool when warm), recording the
  // transcript for at-most-once replay and refreshing the session's
  // resume-cache entry. A single query is the N = 1 case.
  void ExecuteRequest(Session& session, Channel& channel, uint64_t query_id,
                      bool batch);
  // In-query OT pad refill (caller holds ot_mu, channel is the recording
  // channel): answers the client's `wanted` announcement with a grant and
  // parks the received columns for idle materialization.
  void ServerOtRefillTail(Session& session, Channel& channel);
  // Answers a retried query id byte-for-byte from the recorded transcript.
  void ReplayQuery(Channel& channel, const QueryTranscript& transcript);
  // Handshake helpers (caller does not hold mu_).
  bool TryResumeSession(Session& session, const std::vector<uint8_t>& ticket);
  void IssueTicket(Session& session, Channel& channel);
  // Re-snapshots the session's crypto state into the resume cache under its
  // current ticket; evicts LRU entries beyond resume_cache_entries. Caller
  // holds s.ot_mu.
  void RefreshResumeEntry(Session& session);
  // Watchdog tick (event-loop thread): cancels sessions whose in-flight
  // query has exceeded query_budget_seconds.
  void CancelOverdueQueries();
  // Filler task body (pool worker): one bounded refill pass on the
  // session's precompute pool, rescheduling itself while the session stays
  // idle and the pool has a deficit. Stops on drain via stop_fill_.
  void FillerStep(const std::shared_ptr<Session>& session);
  // Unregisters, records per-session wire-cost telemetry, shuts the socket
  // down. Caller holds mu_.
  void CloseSessionLocked(const std::shared_ptr<Session>& session,
                          bool failed);

  ServingModel model_;
  ServerConfig config_;
  // Every session's requests run through this one driver; the NB/linear
  // session circuit inside it is shared (the plan is fixed).
  GarblerDriver driver_;

  std::optional<SocketListener> listener_;
  std::unique_ptr<EventLoop> loop_;
  std::unique_ptr<ThreadPool> pool_;
  std::thread loop_thread_;

  mutable std::mutex mu_;
  std::condition_variable drain_cv_;
  std::map<uint64_t, std::shared_ptr<Session>> sessions_;
  uint64_t next_session_id_ = 1;
  int busy_ = 0;  // Sessions with a submitted/running task.
  // Live filler tasks. Tracked apart from busy_ so background precompute
  // never trips admission control; the drain waits for both to hit zero.
  int fillers_ = 0;
  std::atomic<bool> stop_fill_{false};  // Drain: fillers abandon mid-batch.
  bool running_ = false;
  bool draining_ = false;
  ServerStats stats_;

  // Resume cache (mu_-guarded): ticket -> suspended-session snapshot.
  // Tickets come from an entropy-seeded PRG and are consumed on use.
  std::map<std::array<uint8_t, kResumeTicketBytes>, ResumeEntry>
      resume_cache_;
  uint64_t resume_lru_seq_ = 0;
  std::optional<Prg> ticket_prg_;  // Seeded from std::random_device.
};

}  // namespace pafs::serve

#endif  // PAFS_SERVE_SERVER_H_
