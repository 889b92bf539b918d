// The deployable unit of the serving layer: a trained classifier plus the
// public schema and disclosure plan every session must agree on. A
// ServingModel is immutable once the server starts, so any number of
// concurrent sessions can read it without locks.
//
// The handshake (serve/server.cc, serve/client.cc) ships the *public*
// half — schema, plan, classifier kind — to the client in the clear;
// model parameters never leave the server except through the secure
// protocols themselves.
#ifndef PAFS_SERVE_MODEL_H_
#define PAFS_SERVE_MODEL_H_

#include <vector>

#include "core/selection.h"
#include "ml/decision_tree.h"
#include "ml/linear_model.h"
#include "ml/naive_bayes.h"
#include "ml/random_forest.h"
#include "net/channel.h"
#include "util/bitvec.h"

namespace pafs {

class SecureClassificationPipeline;

namespace serve {

// Protocol magic ("PAFSSERV" little-endian) and version; a server answers a
// mismatched hello with kRejected and closes, so stale clients fail typed.
// v2 added the per-query admission ack and the ping/pong keepalive frames.
// v3 added session resumption (the hello carries an optional ticket, the
// hello-ack issues one) and per-query ids for at-most-once execution.
// v4 added cross-query batching (RequestTag::kBatch: N records through one
// GC protocol exchange) and the in-query OT pad refill tail that keeps the
// client's receiver-side pool warm.
// v5 serves linear models over OT-based arithmetic sharing (phase 1 on the
// pooled correlated OTs, then the garbled argmax, batched like the other
// kinds) instead of the Paillier hybrid; the handshake drops the Paillier
// key size.
// v6 serves half-gates only: the handshake drops the garbling-scheme frame.
// v7 runs the 128 base OTs inside the fresh handshake, between the setup
// and the ticket frame, instead of inside the session's first request.
// v8 retires the one-record query tag (value 1, now unknown): every
// request is a kBatch, a single query being the one-record batch; the
// setup ends with the server's limits (records per request, OT pad-pool
// depth).
// v9 runs the base OTs in three flights on edwards25519 (the client's A,
// every B_j in one frame, every masked seed pair in one frame) instead of
// one round trip per base OT over a 1024-bit MODP group.
// v10 drops the evaluator's output report: the client decodes its class
// locally and the server learns only the disclosed values, so a request's
// third client flight carries the refill ask alone.
// v11 drops the refill ask and grant: both ends derive each request's OT
// pad refill from their lockstep pools (ot/ot_pool.h), so the client sends
// the refill columns unasked and a warm query makes one round trip fewer.
inline constexpr uint64_t kWireMagic = 0x5652455353464150ull;
inline constexpr uint64_t kWireVersion = 11;

// Bounds on the limits a server announces in the handshake: a server
// clamps its config to them, a client rejects anything past them typed.
inline constexpr uint64_t kMaxBatchRecords = 1u << 16;
inline constexpr uint64_t kMaxOtPoolDepth = 1u << 20;

// Resumption tickets are fixed-size opaque bytes, generated by the server
// from an entropy-seeded PRG so they are unguessable, rotated on every
// resume so a replayed ticket misses the cache and degrades to a full
// handshake (never a crash, never someone else's state).
inline constexpr uint64_t kResumeTicketBytes = 32;

// Client -> server request tags after the handshake. Value 1 (a query of
// one record before v8) now fails the session like any unknown tag.
enum class RequestTag : uint64_t {
  kBye = 2,    // Graceful session end; the server drops its resume entry.
  kPing = 3,   // Keepalive probe; the server answers kPong.
  kBatch = 4,  // A query id, a record count (1..batch_max_records), then
               // count disclosure rows; the whole request runs as one
               // protocol exchange.
};

// Server -> client status frames: the hello answer, the per-query
// admission ack, and the keepalive reply. kBusy is the load-shedding
// signal — the server is alive but saturated (registry full, draining, or
// worker queue at its bound); clients should back off and reconnect,
// which RetryPolicy (serve/client.h) does transparently.
enum class ReplyStatus : uint64_t {
  kRejected = 0,  // Bad hello (wrong magic/version). Not retryable.
  kOk = 1,        // Hello accepted / query admitted.
  kBusy = 2,      // Shed: registry or worker queue saturated, or draining.
  kPong = 3,      // Answer to RequestTag::kPing.
  kResumed = 4,   // Hello ticket hit: session state restored, no setup or
                  // base OTs follow — only a fresh ticket.
  kCancelled = 5, // The watchdog cancelled this in-flight query (budget
                  // exceeded); the session is closed, the client retries.
  kResync = 6,    // Retry of an executed query whose transcript is gone;
                  // the client must discard its ticket and re-handshake.
};

// Thrown by the client when the server sheds it with ReplyStatus::kBusy —
// distinguishable from ChannelError{kClosed} (server dead) so callers and
// RetryPolicy can back off instead of failing over.
class ServerBusyError : public TransportError {
 public:
  using TransportError::TransportError;
};

// Everything the client learns in the handshake.
struct SessionSetup {
  std::vector<FeatureSpec> features;
  int num_classes = 2;
  ClassifierKind classifier = ClassifierKind::kNaiveBayes;
  std::vector<int> plan_features;  // Disclosure plan, in send order.
  // The server's limits: the client chunks batches to batch_max_records
  // (1..kMaxBatchRecords) and sizes its OT receiver pool to ot_pool_depth
  // (0..kMaxOtPoolDepth, 0 = unpooled).
  int batch_max_records = 64;
  int ot_pool_depth = 0;
};

struct ServingModel {
  SessionSetup setup;

  // Only the member matching setup.classifier is consulted.
  NaiveBayes nb;
  DecisionTree tree;
  LinearModel linear;
  RandomForest forest;

  // Lifts a trained pipeline (model + selected disclosure plan + config)
  // into a deployable model. Defined beside the pipeline (core/), which
  // sits above this layer.
  static ServingModel FromPipeline(const SecureClassificationPipeline& p);
};

// Handshake serialization over any Channel (framed socket in production,
// in-memory pair in tests). Both throw TransportError subclasses on
// malformed or out-of-range wire data.
void SendSessionSetup(Channel& channel, const SessionSetup& setup);
SessionSetup RecvSessionSetup(Channel& channel);

// The v3 client hello: magic, version, and an optional resumption ticket
// (empty = fresh session, kResumeTicketBytes = resume attempt). The server
// decodes hellos with RecvClientHello, and the fuzz harness feeds it
// truncated/corrupted/forged bytes directly; every malformed shape must
// surface as a typed TransportError, never a crash or an oversized
// allocation.
struct ClientHello {
  uint64_t magic = kWireMagic;
  uint64_t version = kWireVersion;
  std::vector<uint8_t> ticket;
};
void SendClientHello(Channel& channel, const ClientHello& hello);
ClientHello RecvClientHello(Channel& channel);

// Reads `count` records' disclosed values off `channel`: each record's
// values of setup.plan_features, in plan order. Disclosed values are wire
// data, so each is range-checked against its feature's cardinality before
// it parameterizes model specialization; a value out of range is a
// ProtocolError. The server reads a request's records with it after the
// record count, the pipeline (which sends no count) directly.
std::vector<std::vector<int>> RecvDisclosures(Channel& channel,
                                              const SessionSetup& setup,
                                              size_t count);

// Decodes a server-issued ticket frame (hello-ack tail). Empty means the
// server has resumption disabled; otherwise exactly kResumeTicketBytes.
std::vector<uint8_t> RecvTicketFrame(Channel& channel);

// Decodes a classifier circuit's output word (BitsFor(num_classes) bits,
// little-endian) into a class index. Only the client decodes, and the bits
// it decodes come out of the server's decode frame, which is peer data: a
// wrong width or an index past num_classes is a ProtocolError, never an
// abort.
int DecodeClassIndex(const BitVec& output, int num_classes);

// True when PAFS_NO_RESUME is set to a nonzero value: both ends then run
// the v3 wire with resumption force-disabled (empty tickets), keeping the
// full-handshake fallback path exercised in CI.
bool ResumeDisabledByEnv();

}  // namespace serve
}  // namespace pafs

#endif  // PAFS_SERVE_MODEL_H_
