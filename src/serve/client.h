// Client driver for the serving layer: connects to a ClassificationServer
// over TCP or UDS, learns the schema + disclosure plan in the handshake,
// and then runs the client side of the secure protocol once per request
// over the framed socket. Every request is a batch of rows (a query is the
// batch of one), chunked to the record cap the server announced in the
// handshake. One client = one server session; run several clients
// (threads or processes) for concurrent load.
//
// Resilience: every request runs under the config's RetryPolicy. A session
// fault (peer died, deadline expired, corrupt frame) or a typed kBusy shed
// from the server tears the session down, waits a jittered capped
// exponential backoff, reconnects, re-handshakes (a fresh handshake re-runs
// the base OTs, a resumed one skips them), and retries — transparently, up
// to max_attempts and the overall deadline budget. Queries are pure
// functions of the row and the model, so a retry can never double-apply
// anything.
#ifndef PAFS_SERVE_CLIENT_H_
#define PAFS_SERVE_CLIENT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "net/fault.h"
#include "net/framing.h"
#include "net/socket.h"
#include "ot/iknp.h"
#include "ot/ot_pool.h"
#include "serve/engine.h"
#include "serve/model.h"
#include "util/random.h"

namespace pafs::serve {

// Capped exponential backoff with jitter (±25% per sleep) plus an overall
// deadline budget, applied per query (and to the constructor's initial
// connect).
struct RetryPolicy {
  // Total tries per operation, the first included; 1 disables retry and
  // restores fail-on-first-fault semantics.
  int max_attempts = 4;
  double initial_backoff_seconds = 0.05;
  double max_backoff_seconds = 1.0;
  // Budget across all attempts of one operation, backoff included; once
  // exceeded the last fault is rethrown. 0 = no overall deadline.
  double deadline_seconds = 30;
};

struct ClientConfig {
  SocketAddress address;
  // Per-Recv deadline; generous because a loaded server may queue this
  // session's request behind num_threads running protocols.
  double recv_timeout_seconds = 60;
  uint64_t seed = 0xC11E47;
  RetryPolicy retry;
  // Chaos hook: when enabled, every send is routed through a
  // FaultInjectingChannel beneath the CRC framing, so serving tests and
  // benches can prove the retry path absorbs drops/corruption/disconnects
  // end to end.
  FaultPlan fault_plan;
  // Session resumption: present the server-issued ticket on reconnect and
  // restore the post-last-success crypto snapshot, skipping the base OTs.
  // false (or PAFS_NO_RESUME=1) always re-handshakes from scratch.
  bool enable_resume = true;
};

class ClassificationClient {
 public:
  // Connects and completes the handshake under the retry policy; throws
  // TransportError subclasses when the server stays unreachable, keeps
  // shedding (ServerBusyError), or speaks a different protocol version.
  explicit ClassificationClient(const ClientConfig& config);
  ~ClassificationClient();  // Best-effort bye + close; never throws.

  ClassificationClient(const ClassificationClient&) = delete;
  ClassificationClient& operator=(const ClassificationClient&) = delete;

  // Schema, plan and classifier kind announced by the server (refreshed
  // on every fresh handshake).
  const SessionSetup& setup() const { return driver_->setup(); }

  // One secure classification. `row` must hold a value in range for every
  // feature of the schema; the plan's features are disclosed in plaintext,
  // the rest stay hidden inside the protocol. Session faults and kBusy
  // sheds are absorbed by reconnect + retry; the last TransportError is
  // rethrown once the policy's attempts or deadline budget is spent.
  int Classify(const std::vector<int>& row);
  SmcRunStats ClassifyWithStats(const std::vector<int>& row);

  // Cross-query batching: classifies every row through one protocol
  // exchange per chunk of the server's announced batch_max_records — one
  // shared OT-extension matrix, one circuit prelude per distinct disclosure
  // set.
  // `stats`, when non-null, accumulates wire bytes, rounds, wall time and
  // AND gates across the whole call. Retries chunk-at-a-time with the same
  // at-most-once semantics as Classify.
  std::vector<int> ClassifyBatch(const std::vector<std::vector<int>>& rows,
                                 SmcRunStats* stats = nullptr);

  // Keepalive probe: one ping/pong round trip on the current session.
  // Refreshes the server's idle clock for this session. Not retried —
  // a TransportError here is the liveness answer; the next Classify will
  // reconnect transparently.
  void Ping();

  // Graceful end: tells the server bye and shuts the socket down. Never
  // throws (a dead socket during teardown is already-handled news).
  // Idempotent; further Classify calls are a programmer error.
  void Close();
  bool open() const { return open_; }

  // Successful re-handshakes performed after construction (mirrored in
  // the serve.reconnects counter).
  uint64_t reconnects() const { return reconnects_; }
  // Query attempts that failed and were retried (serve.client.retries).
  uint64_t retries() const { return retries_; }
  // Reconnects answered kResumed: the ticket hit and the base OTs were
  // skipped (serve.client.resumes).
  uint64_t resumes() const { return resumes_; }

  // Pads ready in the receiver-side OT pool. The pool's target is the
  // depth the server announced in the handshake (no pool when that is 0);
  // every request's lockstep refill tops it up.
  size_t ot_pads_ready() const {
    return ot_pads_ != nullptr ? ot_pads_->depth() : 0;
  }

  // Test/bench hook: severs the connection as a crash would (no bye, no
  // close handshake). The next Classify reconnects — with the resumption
  // ticket when one is held. Safe to call at any time.
  void DropConnection() noexcept;

  const ChannelStats& wire_stats() const { return socket_->stats(); }

 private:
  // One connect + handshake on a fresh socket; replaces the session state
  // (socket, framing, OT endpoints, protocol driver) on success.
  void ConnectOnce();
  // Tears the current session down and marks it closed.
  void Abandon() noexcept;
  // Sleeps the jittered backoff for `attempt` (1-based) or rethrows if the
  // policy's attempts/deadline budget is spent.
  void BackoffOrRethrow(int attempt, double elapsed_seconds);
  // Runs `op` under the retry policy: a TransportError tears the session
  // down and backs off, and the next attempt reconnects first. A null `op`
  // only connects — the constructor's initial handshake, which counts as
  // neither a reconnect nor a retry.
  void WithRetry(const std::function<void()>& op);
  // One request on the open session: a record count and every row (at
  // most the server's cap). Appends the answers to `preds` and adds the
  // request's wire bytes, rounds, wall time and AND gates to `stats`
  // (predicted_class is the last answer). Caller validated the rows.
  void RunOnce(const std::vector<std::vector<int>>& rows,
               std::vector<int>* preds, SmcRunStats* stats);
  // The two status frames bracketing a request: the admission ack (kBusy
  // sheds, kResync drops resume state) and the completion ack (the commit
  // point). Anything but kOk throws typed.
  void RecvAdmissionAck(Channel& ch);
  void RecvCompletionAck(Channel& ch);
  // Programmer-error check: one in-range value for every schema feature.
  void CheckRow(const std::vector<int>& row) const;
  // Checkpoints ot_/rng_/next_query_id_ so a later kResumed handshake can
  // rewind to exactly the state the server's cached snapshot pairs with.
  void SnapshotState();
  void RestoreSnapshot();
  // Discards the ticket and snapshots (after kResync or when the server
  // runs with resumption disabled); the next reconnect is a full handshake.
  void ForgetResumeState();

  ClientConfig config_;
  std::optional<FaultInjector> injector_;  // Engaged iff fault_plan set.
  std::unique_ptr<SocketChannel> socket_;
  std::unique_ptr<FaultInjectingChannel> faulty_;
  std::unique_ptr<FramedChannel> framed_;
  // The evaluator driver for the announced setup; rebuilt on every fresh
  // handshake, kept across resumes.
  std::unique_ptr<EvaluatorDriver> driver_;
  // Receiver-side OT pad pool, sized to the server's announced depth and
  // null when that is 0. Rebuilt on every fresh handshake (pads are bound
  // to the dead session's sender state) and covered by the resumption
  // snapshot so replayed retries re-spend the same pads.
  std::unique_ptr<OtReceiverPadPool> ot_pads_;
  OtExtReceiver ot_;
  Rng rng_;
  // Resumption state: the live ticket plus copies of the crypto state
  // taken after the handshake and after every successful query. The pad
  // pool's state shares its segments with the live pool.
  struct Snapshot {
    OtExtReceiver ot;
    Rng rng;
    OtReceiverPadPool::State ot_pads;
    uint64_t next_query_id = 1;
  };
  std::vector<uint8_t> ticket_;
  std::optional<Snapshot> snapshot_;
  uint64_t next_query_id_ = 1;  // Stamped on the next request.
  bool open_ = false;      // Current session is live.
  bool finished_ = false;  // Close() was called; no further queries.
  uint64_t reconnects_ = 0;
  uint64_t retries_ = 0;
  uint64_t resumes_ = 0;
};

}  // namespace pafs::serve

#endif  // PAFS_SERVE_CLIENT_H_
