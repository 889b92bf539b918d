// The secure protocol of one request, one driver per party. The server
// (ExecuteRequest), the client (RunOnce) and the in-process pipeline
// (core/pipeline) all run their queries through these two drivers, so
// there is one way to run a query.
//
// A request is N records: the garbler (model owner) holds each record's
// disclosure values in plan order, the evaluator (patient) the full rows.
// Per record the drivers resolve one garbled circuit:
//   - naive Bayes: the session circuit (one per plan), with the record's
//     disclosure folded into its garbler bits;
//   - linear: phase-1 correlated OTs (every record in one transfer), then
//     the session argmax circuit;
//   - tree / forest: the circuit specialised on the record's disclosure
//     key. The garbler ships one prelude per distinct key in
//     first-occurrence order; both ends derive that order from their own
//     records, so the wire carries no index frames.
// Then one batched GC exchange, whose class indices only the evaluator
// decodes: the garbler's last message is its label OT, and it learns
// nothing but the disclosed values. The OT endpoints arrive set up:
// whoever opened the session ran the base OTs.
//
// The pools are optional: null GC and OT pools give the fully online path
// (PAFS_NO_POOL=1 serving, and the pipeline). Bytes, rounds and wall time
// belong to whoever owns the channel; the evaluator reports AND gates.
#ifndef PAFS_SERVE_ENGINE_H_
#define PAFS_SERVE_ENGINE_H_

#include <map>
#include <memory>
#include <vector>

#include "circuit/circuit.h"
#include "net/channel.h"
#include "ot/iknp.h"
#include "serve/model.h"
#include "smc/common.h"
#include "util/bitvec.h"

namespace pafs {

class OtSenderPadPool;
class OtReceiverPadPool;
class Rng;
class SecureNbCircuit;
class SecureLinearAbyProtocol;

namespace serve {

class GcPool;

// A tree or forest circuit specialised on one disclosure key, with the
// specialised model's garbler bits.
struct KeySpec {
  // The SecureTreeCircuit or SecureForestCircuit that layout and circuit
  // point into.
  std::shared_ptr<const void> owner;
  const HiddenLayout* layout = nullptr;
  const Circuit* circuit = nullptr;
  BitVec garbler_bits;
};

// The garbler's tree/forest specs by disclosure key (disclosure values in
// plan order, so one map serves one plan).
using SpecMap = std::map<std::vector<int>, std::shared_ptr<const KeySpec>>;

// Bound on a session's distinct disclosure keys: the spec map's size and
// the GC pool's key budget.
inline constexpr int kDefaultMaxSpecKeys = 8;

// One party's session state: its set-up OT stream, the garbler's rng, and
// the pools (null when the session runs unpooled).
struct GarblerSession {
  OtExtSender& ot;
  Rng& rng;
  // Specs are added while fewer than kDefaultMaxSpecKeys are held and never
  // evicted: the first keys a session sees stay cached, later keys are
  // built on every use. Only the session's single in-flight request
  // touches the map, so it needs no lock.
  SpecMap& specs;
  GcPool* gc_pool = nullptr;
  OtSenderPadPool* ot_pads = nullptr;
};

struct EvaluatorSession {
  OtExtReceiver& ot;
  OtReceiverPadPool* ot_pads = nullptr;
};

class GarblerDriver {
 public:
  // `model` must outlive the driver; `plan` is the disclosed features, in
  // the order the records carry their values.
  GarblerDriver(const ServingModel& model, std::vector<int> plan);
  ~GarblerDriver();

  // Runs one request's records (disclosure values in plan order, already
  // range-checked). It ends on a send: the caller's next Recv or Flush
  // carries that flight out of a framed channel.
  void Run(Channel& channel, const std::vector<std::vector<int>>& keys,
           const GarblerSession& session) const;

 private:
  std::shared_ptr<const KeySpec> SpecFor(const std::vector<int>& key,
                                         const GarblerSession& session) const;

  const ServingModel& model_;
  std::vector<int> plan_;
  std::unique_ptr<SecureNbCircuit> nb_;
  std::unique_ptr<SecureLinearAbyProtocol> linear_;
};

struct EvaluatorResult {
  std::vector<int> classes;  // One per record.
  size_t and_gates = 0;      // Summed over the records' circuits.
};

class EvaluatorDriver {
 public:
  // `setup` is what the handshake announced (validated on receipt).
  explicit EvaluatorDriver(SessionSetup setup);
  ~EvaluatorDriver();

  const SessionSetup& setup() const { return setup_; }

  // Runs one request's records (full rows, in range for the schema).
  EvaluatorResult Run(Channel& channel,
                      const std::vector<std::vector<int>>& rows,
                      const EvaluatorSession& session) const;

 private:
  SessionSetup setup_;
  std::unique_ptr<SecureNbCircuit> nb_;
  std::unique_ptr<SecureLinearAbyProtocol> linear_;
};

}  // namespace serve
}  // namespace pafs

#endif  // PAFS_SERVE_ENGINE_H_
