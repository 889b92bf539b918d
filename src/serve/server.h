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
  uint64_t seed = 0x5AFE5EED;  // Per-session RNG streams derive from this.
  // Session resumption (wire v3): the server snapshots each session's
  // crypto state (OT extension + RNG + query cursor) after the handshake
  // and after every completed query, keyed by an unguessable ticket. A
  // reconnecting client that presents the ticket restores the snapshot and
  // skips the base OTs entirely. This bounds the LRU of snapshots; 0 (or
  // PAFS_NO_RESUME=1) disables resumption.
  int resume_cache_entries = 1024;
  // Snapshots older than this are expired on lookup; 0 = no TTL.
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
  // finds its input-independent material ready. PAFS_NO_POOL=1 zeroes both
  // depths. Pre-garbled circuits kept per disclosure set per session
  // (GcPool, for up to kDefaultMaxSpecKeys sets); a warm entry removes the
  // whole online Garble from a query's critical path. 0 disables (falls
  // back to online garbling).
  int gc_pool_depth = 2;
  // Target depth of the per-session sender-side OT pad pool, announced in
  // the handshake: the client sizes its receiver pool to it, and both ends
  // top their pools up in lockstep at the end of every request
  // (ot/ot_pool.h). 0 disables.
  int ot_pool_depth = 4096;
  // Upper bound on records per request, announced in the handshake so the
  // client chunks its batches to it; a larger count fails the session
  // typed.
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
  uint64_t batches_served = 0;  // Requests of 2+ records executed live.
  uint64_t batch_records = 0;   // Records across those batches.
  int sessions_active = 0;
};

// Record of one executed query at framed-channel granularity: every Send
// payload verbatim, every Recv payload for divergence checking. Replaying
// it answers a retried query id byte-for-byte without re-running the
// protocol (and therefore without advancing any crypto stream). Each op
// names its direction and length; the payloads lie back to back, in op
// order, in chunks of at least kChunkBytes, and no op straddles two
// chunks. Recording costs one allocation per chunk, not one per op, and a
// growing transcript never copies what it already holds.
struct QueryTranscript {
  static constexpr size_t kChunkBytes = size_t{64} << 10;
  struct Op {
    bool is_send = false;
    size_t length = 0;
  };
  uint64_t query_id = 0;
  std::vector<Op> ops;
  std::vector<std::vector<uint8_t>> chunks;
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
  using Ticket = std::array<uint8_t, kResumeTicketBytes>;

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
    // (rotated on every resume; unused when resumption is off), the id the
    // next query must carry, and the transcript of the last executed query
    // for replay.
    Ticket ticket{};
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
    // protocol region (every ot use plus the lockstep refill) and again to
    // expand the refill's columns right after the completion ack; the
    // filler only try_locks it to materialize what a resumed snapshot
    // parked, so background expansion never interleaves with a live
    // transfer.
    std::mutex ot_mu;
    // Tree/forest circuit specs per disclosure set: the first
    // kDefaultMaxSpecKeys sets stay cached, none is evicted.
    SpecMap specs;

    Session(uint64_t id, std::unique_ptr<SocketChannel> sock,
            const ServerConfig& config);
  };

  // A suspended session's restorable state, keyed by its ticket in the
  // resume cache: copies of the crypto state (taken after the handshake
  // and refreshed after every executed query) plus the last query's
  // transcript so a resumed retry can still replay.
  struct ResumeEntry {
    OtExtSender ot;
    Rng rng;
    // Precomputed pads and garbled circuits survive suspension, so a
    // resumed session's first query still runs pooled. Shared with the
    // live session, not copied.
    SessionPrecompute::Snapshot precompute;
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
  // One request: its query id, a record count, then the records.
  void ServeQuery(Session& session, Channel& channel);
  // Runs a live request: its N records through one protocol exchange (one
  // OT extension matrix, one circuit prelude per distinct disclosure set,
  // pre-garbled circuits from the GC pool when warm), recording the
  // transcript for at-most-once replay and refreshing the session's
  // resume-cache entry. A single query is the N = 1 case.
  void ExecuteRequest(Session& session, Channel& channel, uint64_t query_id);
  // Expands the OT columns the session's pad pool has parked, so its next
  // transfer finds them as pads. Caller holds session.ot_mu.
  void MaterializeParkedPads(Session& session);
  // Answers a retried query id byte-for-byte from the recorded transcript.
  void ReplayQuery(Channel& channel, const QueryTranscript& transcript);
  // Handshake helpers (caller does not hold mu_).
  bool TryResumeSession(Session& session, const std::vector<uint8_t>& ticket);
  void IssueTicket(Session& session, Channel& channel);
  // Re-snapshots the session's crypto state into the resume cache under its
  // current ticket; evicts LRU entries beyond resume_cache_entries. Returns
  // the entries it displaced or evicted, for the caller to destroy later:
  // dropping the last reference to a transcript, pad segment or garbled
  // circuit frees it. Caller holds s.ot_mu.
  std::vector<ResumeEntry> RefreshResumeEntry(Session& session);
  // Unlinks a resume-cache entry from the cache and the LRU index and
  // returns it, so the caller can destroy it after releasing mu_. Caller
  // holds mu_.
  ResumeEntry TakeResumeEntryLocked(std::map<Ticket, ResumeEntry>::iterator it);
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
  std::map<Ticket, ResumeEntry> resume_cache_;
  // LRU index over resume_cache_: lru_seq -> ticket, least recently
  // refreshed first.
  std::map<uint64_t, Ticket> resume_lru_;
  uint64_t resume_lru_seq_ = 0;
  std::optional<Prg> ticket_prg_;  // Seeded from std::random_device.
};

}  // namespace pafs::serve

#endif  // PAFS_SERVE_SERVER_H_
